//go:build !amd64 || purego

package fmindex

// haveRankKernel is false: Extend ranks with the Go count4.
const haveRankKernel = false

// rankPair is the kernel's contract in Go, so the differential tests
// check it on every build.
func rankPair(lk, ll *occBPLine, k, l int, ck, cl *[4]int) {
	lk.count4(k, ck)
	ll.count4(l, cl)
}

// prefetch2 is a no-op: there is no prefetch instruction to issue.
func prefetch2(lines *occBPLine, i, j int) {}
