//go:build !amd64 || purego

package bsw

// haveRow16 is false: ExtendScalar runs the int32 extendRow.
const haveRow16 = false

// extendRow16 is extendRow over int16 cells. It exists here only so that
// FuzzExtendRow checks the int16 range argument on every build.
func extendRow16(h, e []int16, q []int8, h1, oeDel, eDel, oeIns, eIns int16) (int16, int16, int) {
	return extendRow(h, e, q, h1, oeDel, eDel, oeIns, eIns)
}
