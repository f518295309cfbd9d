//go:build !purego

package bsw

func init() {
	setRow16 = func(on bool) func() {
		old := haveRow16
		haveRow16 = on
		return func() { haveRow16 = old }
	}
}
