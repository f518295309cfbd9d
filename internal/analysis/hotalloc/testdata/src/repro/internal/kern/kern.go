// Package kern exercises every hotalloc check.
package kern

import "fmt"

type item struct{ k, v int }

type sink interface{ accept(int) }

type valuer interface{ Value() int }

type cell int

func (c cell) Value() int { return int(c) }

func run(f func() int) int { return f() }

//bwalint:hot
func classify(items []item) []int {
	var hot []int
	for _, it := range items {
		if it.v > 0 {
			hot = append(hot, it.k) // want `append grows hot from zero capacity in hot region`
		}
	}
	return hot
}

func process(items []item, counts map[int]int, s sink) int {
	total := 0
	//bwalint:hot
	for _, it := range items {
		p := &item{k: it.k, v: it.v} // want `escaping composite literal in hot region`
		q := new(item)               // want `new\(\.\.\.\) in hot region`
		q.v = it.v
		s.accept(p.v)
		total += run(func() int { return it.v }) // want `closure literal in hot region`
	}
	//bwalint:hot
	for k, v := range counts { // want `map iteration in hot region`
		total += k + v
	}
	return total
}

func render(items []item) string {
	out := ""
	//bwalint:hot render loop dominates the profile
	for _, it := range items {
		out += fmt.Sprint(it.k) // want `implicit interface conversion in hot region`
	}
	return out
}

//bwalint:hot
func box(cs []cell) []valuer {
	vs := make([]valuer, 0, len(cs))
	for _, c := range cs {
		vs = append(vs, valuer(c)) // want `interface conversion in hot region`
	}
	return vs
}

// widen converts to a type parameter, which boxes nothing: no diagnostics.
//
//bwalint:hot
func widen[T int16 | int32](dst []T, src []int8) {
	for i, v := range src {
		dst[i] += T(v)
	}
}

// cold is identical to classify but unmarked: no diagnostics.
func cold(items []item) []int {
	var all []int
	for _, it := range items {
		all = append(all, it.k)
	}
	return all
}
