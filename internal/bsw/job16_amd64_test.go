//go:build !purego

package bsw

func init() {
	setJob16 = func(on bool) func() {
		old := haveJob16
		haveJob16 = on
		return func() { haveJob16 = old }
	}
	setGlobalFill = func(on bool) func() {
		old := haveGlobalVec
		haveGlobalVec = on
		return func() { haveGlobalVec = old }
	}
}
