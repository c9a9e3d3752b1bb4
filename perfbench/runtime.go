package main

import (
	"runtime"
	"runtime/metrics"
)

// rtSnap is the Go runtime's view of the process at one instant: heap
// allocations so far and the GC's share of CPU time.
type rtSnap struct {
	mallocs  uint64
	gcCPU    float64 // cpu-seconds spent in GC
	totalCPU float64 // cpu-seconds available to Go code, all classes
	gcCycles uint64
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// snapRuntime reads the counters at the edge of a timed section.
// ReadMemStats stops the world briefly, so it is never called inside one.
func snapRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	return rtSnap{
		mallocs:  ms.Mallocs,
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		gcCycles: s[2].Value.Uint64(),
	}
}

// add accumulates the change from a to b into d, so one rtSnap can sum
// a pass's timed sections.
func (d *rtSnap) add(a, b rtSnap) {
	d.mallocs += b.mallocs - a.mallocs
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
	d.gcCycles += b.gcCycles - a.gcCycles
}

func (d *rtSnap) gcFrac() float64 {
	if d.totalCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}

// heapSampler tracks peak live heap from the feeding goroutine without
// stopping the world.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapSampler) peakMB() float64 { return float64(h.peak) / (1 << 20) }
