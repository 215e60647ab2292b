// Command perfbench is the repository benchmark. It drives the program
// through the root package's public API (prefillonly.NewSimulation,
// SubmitAt and Run; NewServer(...).Handler() called in process; the
// public getters for counts) on one seeded workload, checks the outputs,
// and prints its metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sweep-routing --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the run is timed and untraced and reports the end-to-end
// metrics. With --trace 1 it runs the workload once untraced, then again
// under a CPU profile with spans recorded around every call into the
// program, replays pure functions on the workload's inputs, and reports
// the per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The process exits
// non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of a timed run, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"req_per_wall_s", "req/s"},
	{"allocs_per_req", "allocs"},
	{"peak_rss_mb", "MB"},
	{"completed_ratio", "ratio"},
}

// perLayer are the metrics of a traced run, reported on every workload; a
// layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{b + ".cpu_share", "ratio"})
	}
	return append(defs, []metricDef{
		{"hash.ns_per_token", "ns"},
		{"tokenizer.ns_per_token", "ns"},
		{"server.decode_us", "us"},
		{"server.score_ns", "ns"},
		{"graph.estimate_ns", "ns"},
		{"modelled.jct_p50_s", "sim_s"},
		{"modelled.jct_p99_s", "sim_s"},
		{"modelled.shed_ratio", "ratio"},
		{"setup.s", "s"},
		{"run.s", "s"},
		{"serve.wall_p50_ms", "ms"},
		{"serve.wall_p99_ms", "ms"},
		{"serve.overhead_ms_p50", "ms"},
		{"loadgen.late_ms_max", "ms"},
		{"kvcache.hit_ratio", "ratio"},
		{"kvcache.inserted_blocks", "count"},
		{"kvcache.evicted_blocks", "count"},
		{"router.rejected.backlog", "count"},
		{"router.rejected.class-budget", "count"},
		{"router.rejected.no-capacity", "count"},
		{"router.balance_ratio", "ratio"},
		{"sched.queue_wait_p50_s", "sim_s"},
		{"sched.queue_wait_p99_s", "sim_s"},
		{"engine.exec_p50_s", "sim_s"},
		{"autoscale.scale_ups", "count"},
		{"autoscale.cold_start_s", "sim_s"},
		{"autoscale.gpu_s", "sim_s"},
		{"gc.cycles", "count"},
		{"gc.pause_ms", "ms"},
		{"trace.overhead_ratio", "ratio"},
	}...)
}()

// result is what one run reports.
type result struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	report            []string // per-phase counts, printed before the result
}

// bench is one workload with its inputs generated.
type bench interface {
	// timed measures the end-to-end metrics for about budget of wall time.
	timed(budget time.Duration) (*result, error)
	// traced measures the per-layer metrics for about budget of wall time,
	// recording spans into tr.
	traced(budget time.Duration, tr *tracer) (*result, error)
}

// workloads generate their inputs from the seed; the program under test
// only ever sees the generated inputs.
var workloads = map[string]func(seed int64, budget time.Duration) bench{
	"sweep-routing": func(seed int64, _ time.Duration) bench {
		return &simBench{name: "sweep-routing", w: &sweepRouting{seed: seed}}
	},
	"sim-classmix-elastic": func(seed int64, _ time.Duration) bench {
		return &simBench{name: "sim-classmix-elastic", w: &classMixElastic{seed: seed}}
	},
	"serve-http": func(seed int64, budget time.Duration) bench {
		return newServeHTTP(seed, budget)
	},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep-routing, sim-classmix-elastic or serve-http")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 15, "wall seconds to measure")
	traceFlag := fs.Int("trace", 0, "0: timed end-to-end run; 1: traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (sweep-routing, sim-classmix-elastic, serve-http), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	fmt.Fprintf(stdout, "stamp workload=%s seed=%d trace=%d go=%s gomaxprocs=%d nproc=%d commit=%s\n",
		*name, *seed, *traceFlag, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit())

	b := mk(*seed, budget)
	var res *result
	var err error
	defs := endToEnd
	if *traceFlag == 1 {
		defs = perLayer
		tr := newTracer()
		res, err = b.traced(budget, tr)
		if err == nil {
			out := filepath.Join(".bench_out", fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
			if werr := tr.write(out); werr != nil {
				fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", werr)
			}
		}
	} else {
		res, err = b.timed(budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, line := range res.report {
		fmt.Fprintln(stdout, line)
	}
	for _, p := range res.problems {
		fmt.Fprintln(stdout, "check failed:", p)
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s is %g\n", *name, d.name, v)
			return 1
		}
		fmt.Fprintf(stdout, "metric %-30s %.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	correct := res.failed == 0 && res.attempted > 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// commit names the source revision the binary was built from, when the
// build saw a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
