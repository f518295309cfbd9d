// Package bsw mirrors the real kernels' post-fix allocation discipline:
// preallocated index slices (a job classifier) and zero-length
// reslices of persistent scratch buffers (the SMEM sweep). Nothing here
// may be reported.
package bsw

type job struct{ query, target []byte }

type smemBuf struct {
	prev, curr []int
}

// classify8 splits jobs by length into slices preallocated to fit them all.
//
//bwalint:hot
func classify8(jobs []job) ([]int, []int) {
	idx8 := make([]int, 0, len(jobs))
	idxScalar := make([]int, 0, len(jobs))
	for i := range jobs {
		if len(jobs[i].query) < 128 {
			idx8 = append(idx8, i)
		} else {
			idxScalar = append(idxScalar, i)
		}
	}
	return idx8, idxScalar
}

// sweep is the SMEM1 shape: appends target reslices of caller-owned
// scratch (capacity retained across calls) and a result parameter, both
// outside the zero-capacity rule.
//
//bwalint:hot
func sweep(q []byte, b *smemBuf, out []int) []int {
	prev, curr := b.prev[:0], b.curr[:0]
	for i := range q {
		if q[i] > 3 {
			curr = append(curr, i)
			continue
		}
		prev = append(prev, i)
		if len(prev) > 4 {
			prev, curr = curr, prev
			curr = curr[:0]
		}
	}
	out = append(out, len(prev), len(curr))
	b.prev, b.curr = prev, curr
	return out
}
