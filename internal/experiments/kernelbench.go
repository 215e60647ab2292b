package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/sim"
)

// KernelBenchResult captures the sim kernel's raw event throughput and
// allocation cost at a constant pending depth — the regime every serving
// run keeps the kernel in. Two paths are measured on the same workload
// shape: the closure path (a fresh capturing closure per scheduled event,
// the idiom every engine used before the value-heap kernel; the pre-
// refactor kernel additionally paid a heap-allocated *event and a
// container/heap interface boxing per event on top of it) and the
// zero-alloc fast path (package-level callback + reused payload pointer).
// cmd/prefillbench writes this as BENCH_kernel.json so kernel regressions
// show up in the benchmark trajectory.
type KernelBenchResult struct {
	// Events is how many events each path executed.
	Events int `json:"events"`
	// Depth is the constant pending-event depth during the measurement.
	Depth int `json:"depth"`
	// ClosureEventsPerSec is the closure path's throughput.
	ClosureEventsPerSec float64 `json:"closure_events_per_sec"`
	// ClosureAllocsPerEvent is the closure path's heap allocations per event.
	ClosureAllocsPerEvent float64 `json:"closure_allocs_per_event"`
	// FastPathEventsPerSec is the zero-alloc fast path's throughput.
	FastPathEventsPerSec float64 `json:"fastpath_events_per_sec"`
	// FastPathAllocsPerEvent is the fast path's heap allocations per event
	// (0 in steady state; pinned by internal/sim's AllocsPerRun test).
	FastPathAllocsPerEvent float64 `json:"fastpath_allocs_per_event"`
	// FastPathSpeedup is FastPathEventsPerSec / ClosureEventsPerSec.
	FastPathSpeedup float64 `json:"fastpath_speedup"`
	// HostCPUs and GoVersion record the measurement host: absolute
	// throughput is a function of the machine and toolchain, so the
	// committed artifact carries its provenance.
	HostCPUs  int    `json:"host_cpus"`
	GoVersion string `json:"go_version"`
}

// kernelChain is the fast-path payload: each firing reschedules itself,
// holding the pending depth constant.
type kernelChain struct {
	s         *sim.Sim
	remaining int
}

func kernelChainStep(arg any) {
	c := arg.(*kernelChain)
	if c.remaining > 0 {
		c.remaining--
		c.s.AfterFunc(1, kernelChainStep, c)
	}
}

// kernelMeasure runs one path to completion and returns (events/sec,
// allocs/event).
func kernelMeasure(events int, run func()) (float64, float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	run()
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	eps := 0.0
	if wall > 0 {
		eps = float64(events) / wall
	}
	return eps, float64(m1.Mallocs-m0.Mallocs) / float64(events)
}

// KernelBench measures the sim kernel's event throughput over roughly the
// given number of events (split across a depth-64 self-rescheduling
// population) on both scheduling paths.
func KernelBench(events int) (*KernelBenchResult, error) {
	const depth = 64
	if events < depth {
		return nil, fmt.Errorf("experiments: kernel bench needs >= %d events, got %d", depth, events)
	}
	perChain := events / depth
	total := perChain * depth

	res := &KernelBenchResult{Events: total, Depth: depth, HostCPUs: runtime.NumCPU(), GoVersion: runtime.Version()}

	// Closure path: every reschedule builds a fresh capturing closure,
	// like the engines' dispatch completions did before the fast path.
	res.ClosureEventsPerSec, res.ClosureAllocsPerEvent = kernelMeasure(total, func() {
		var s sim.Sim
		var spawn func(remaining int)
		spawn = func(remaining int) {
			if remaining > 0 {
				s.After(1, func() { spawn(remaining - 1) })
			}
		}
		for i := 0; i < depth; i++ {
			i := i
			s.At(float64(i)/depth, func() { spawn(perChain - 1) })
		}
		s.Run()
	})

	// Fast path: package-level callback, one reused payload per chain.
	res.FastPathEventsPerSec, res.FastPathAllocsPerEvent = kernelMeasure(total, func() {
		var s sim.Sim
		for i := 0; i < depth; i++ {
			c := &kernelChain{s: &s, remaining: perChain - 1}
			s.AtFunc(float64(i)/depth, kernelChainStep, c)
		}
		s.Run()
	})

	if res.ClosureEventsPerSec > 0 {
		res.FastPathSpeedup = res.FastPathEventsPerSec / res.ClosureEventsPerSec
	}
	return res, nil
}
