package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// metricDef names one reported metric. End-to-end metrics come from untraced
// runs (--trace 0); per-layer metrics from traced runs (--trace 1).
type metricDef struct {
	name, unit string
	layer      bool
}

// metricDefs is every metric the benchmark reports, in report order. It must
// match BENCHMARK.json; the self-test checks that it does.
var metricDefs = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "solve_cpu_s", unit: "s"},
	{name: "solve_cost", unit: "cost"},
	{name: "ingest_events_per_cpu_s", unit: "1/s"},
	{name: "epoch_cpu_p50_ms", unit: "ms"},
	{name: "epoch_cpu_p90_ms", unit: "ms"},
	{name: "realized_cost", unit: "cost"},
	{name: "heap_peak_mb", unit: "MB"},

	{name: "core.compile_s", unit: "s", layer: true},
	{name: "core.group_s", unit: "s", layer: true},
	{name: "core.group_ratio", unit: "ratio", layer: true},
	{name: "core.expand_s", unit: "s", layer: true},
	{name: "core.validate_s", unit: "s", layer: true},
	{name: "search.s", unit: "s", layer: true},
	{name: "search.iterations", unit: "count", layer: true},
	{name: "search.iters_per_s", unit: "1/s", layer: true},
	{name: "search.cpu_util", unit: "ratio", layer: true},
	{name: "conc.high_water", unit: "count", layer: true},
	{name: "conc.acquires", unit: "count", layer: true},
	{name: "decompose.self_s", unit: "s", layer: true},
	{name: "decompose.shards", unit: "count", layer: true},
	{name: "decompose.shard_max_s", unit: "s", layer: true},
	{name: "decompose.idle_ratio", unit: "ratio", layer: true},
	{name: "server.decode_s", unit: "s", layer: true},
	{name: "server.decode_us_per_event", unit: "us", layer: true},
	{name: "ingest.fold_s", unit: "s", layer: true},
	{name: "ingest.fold_events_per_s", unit: "1/s", layer: true},
	{name: "ingest.compact_s", unit: "s", layer: true},
	{name: "ingest.churn_ops", unit: "count", layer: true},
	{name: "ingest.tracked", unit: "count", layer: true},
	{name: "ingest.state_bytes", unit: "bytes", layer: true},
	{name: "session.apply_s", unit: "s", layer: true},
	{name: "session.apply_us_per_op", unit: "us", layer: true},
	{name: "session.resolve_s", unit: "s", layer: true},
	{name: "session.resolve_iterations", unit: "count", layer: true},
	{name: "session.warm_win_ratio", unit: "ratio", layer: true},
	{name: "engine.run_s", unit: "s", layer: true},
	{name: "engine.replay_s", unit: "s", layer: true},
	{name: "engine.skipped_ratio", unit: "ratio", layer: true},
	{name: "trace.overhead_s", unit: "s", layer: true},
	{name: "trace.unattributed_s", unit: "s", layer: true},
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// mean returns the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// clockProcessCPU is CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPU = 2

// processCPU returns the CPU time all of the process's threads have used so
// far. Time a thread spends waiting for a processor, behind another process or
// behind another guest on the host, does not count.
func processCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// heapSampler tracks the peak of the live heap while it runs: the bytes the
// latest GC marked reachable, read every heapSampleEvery. Unswept garbage does not
// count, so the peak follows what the advisor holds rather than GC pacing;
// runtime/metrics reads do not stop the world. Only the sampling goroutine
// touches peak until stopMB has waited for it to exit.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapLiveMetric = "/gc/heap/live:bytes"

// heapSampleEvery is how often the sampler reads the live heap. The value
// changes only when a GC cycle ends, so a coarse tick loses little, and the
// sampler's own wake-ups add little to the CPU time the run measures.
const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapLiveMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				read()
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// stopMB stops the sampler, waits for it to exit and returns the peak in MB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
