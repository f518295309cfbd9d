package obs

import (
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

// Runtime writes the Go runtime's health under prefix: goroutine count,
// heap usage and GC activity, the numbers that explain a latency
// histogram's tail when the pipeline itself is innocent (a goroutine leak,
// a heap growing into GC pressure, long pauses). The pause total comes from
// debug.ReadGCStats, which takes the heap lock but does not stop the world
// either.
func (w *MetricsWriter) Runtime(prefix string) {
	rs := ReadRuntime()
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	w.Gauge(prefix+"_go_goroutines", float64(rs.Goroutines))
	w.Gauge(prefix+"_go_heap_alloc_bytes", float64(rs.HeapAllocBytes))
	w.Gauge(prefix+"_go_heap_sys_bytes", float64(rs.HeapSysBytes))
	w.Gauge(prefix+"_go_heap_objects", float64(rs.HeapObjects))
	w.Counter(prefix+"_go_gcs_total", float64(rs.GCs))
	w.Counter(prefix+"_go_gc_pause_seconds_total", gc.PauseTotal.Seconds())
}
