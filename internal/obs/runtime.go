package obs

import (
	"fmt"
	"io"
	"runtime/debug"
	"runtime/metrics"
)

// Runtime is one reading of the Go runtime's health gauges.
type Runtime struct {
	Goroutines     uint64
	HeapAllocBytes uint64 // bytes in heap objects, live or not yet swept
	HeapSysBytes   uint64 // heap memory obtained from the OS
	HeapObjects    uint64
	GCs            uint64 // completed GC cycles
}

// runtimeNames are the runtime/metrics samples ReadRuntime takes, in the
// order it reads them. Heap-object bytes is the first heap class, and heap
// sys the sum of all four, as runtime.MemStats.HeapSys is.
var runtimeNames = [...]string{
	"/sched/goroutines:goroutines",
	"/gc/heap/objects:objects",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/memory/classes/heap/free:bytes",
	"/memory/classes/heap/released:bytes",
}

// ReadRuntime reads the gauges from runtime/metrics, which, unlike
// runtime.ReadMemStats, does not stop the world.
func ReadRuntime() Runtime {
	var s [len(runtimeNames)]metrics.Sample
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return Runtime{
		Goroutines:     s[0].Value.Uint64(),
		HeapObjects:    s[1].Value.Uint64(),
		GCs:            s[2].Value.Uint64(),
		HeapAllocBytes: s[3].Value.Uint64(),
		HeapSysBytes:   s[3].Value.Uint64() + s[4].Value.Uint64() + s[5].Value.Uint64() + s[6].Value.Uint64(),
	}
}

// WriteRuntimeMetrics emits the Go runtime's health gauges in Prometheus
// text exposition format under the given prefix: goroutine count, heap
// usage, and GC activity — the numbers that explain a latency histogram's
// tail when the pipeline itself is innocent (a goroutine leak, a heap
// growing into GC pressure, long pauses).
//
// The pause total comes from debug.ReadGCStats, which takes the heap lock
// but does not stop the world either.
func WriteRuntimeMetrics(w io.Writer, prefix string) error {
	rs := ReadRuntime()
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	rows := []struct {
		name  string
		value string
	}{
		{"go_goroutines", fmt.Sprintf("%d", rs.Goroutines)},
		{"go_heap_alloc_bytes", fmt.Sprintf("%d", rs.HeapAllocBytes)},
		{"go_heap_sys_bytes", fmt.Sprintf("%d", rs.HeapSysBytes)},
		{"go_heap_objects", fmt.Sprintf("%d", rs.HeapObjects)},
		{"go_gcs_total", fmt.Sprintf("%d", rs.GCs)},
		{"go_gc_pause_seconds_total", fmt.Sprintf("%.6f", gc.PauseTotal.Seconds())},
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s_%s %s\n", prefix, r.name, r.value); err != nil {
			return err
		}
	}
	return nil
}
