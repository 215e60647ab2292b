// Command prefillbench regenerates the paper's tables and figures from the
// simulation harness and prints them as aligned text tables.
//
// Usage:
//
//	prefillbench -exp table1|table2|table3|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|sec2.3|sec6.3|routing|autoscale|slo|chaos|kernel|all
//	             [-scenario L4|A100|H100|H100-NVLink] [-dataset post|credit]
//	             [-seed N] [-small] [-parallel N] [-json FILE] [-trace FILE]
//
// fig6/fig7 honour -scenario and -dataset to render a single panel
// (the full grid is expensive); "all" runs everything cheap plus one panel.
//
// -parallel N fans each sweep's independent (config, seed) cells across N
// workers (default GOMAXPROCS; -parallel 1 reproduces the serial
// executor). Cell results are aggregated in index order and every cell is
// self-contained, so output rows are byte-identical at any parallelism —
// only the wall clock changes.
//
// routing additionally honours -trace FILE: after the sweep it executes one
// dedicated instrumented run with the flight recorder attached and writes
// the resulting Chrome trace-event JSON, loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
//
// routing also honours -timeseries FILE: after the sweep it executes one
// dedicated run with the windowed time-series collector attached and
// writes the series as JSON, plus a CSV sibling (FILE with a .csv
// extension). The collector never perturbs the run.
//
// routing, autoscale, slo, chaos and kernel honour -json to additionally
// write their results as JSON; the CI benchmark smoke step records
// BENCH_routing.json, BENCH_autoscale.json, BENCH_slo.json,
// BENCH_chaos.json and BENCH_kernel.json this way. For -exp all, -json names a directory:
// every JSON-producing experiment writes its BENCH_*.json file into it.
// Sweep JSON carries {"rows": ..., "executor":
// ...}: the executor block records serial-equivalent vs. parallel wall
// seconds and allocations per cell, so harness-speed regressions are as
// visible as simulation-result regressions.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run")
	scenario := flag.String("scenario", "L4", "scenario for fig6/fig7 panels")
	dataset := flag.String("dataset", "post", "dataset for fig6/fig7 panels (post|credit)")
	seed := flag.Int64("seed", 1, "workload seed")
	small := flag.Bool("small", false, "use scaled-down datasets for quick runs")
	parallel := flag.Int("parallel", experiments.DefaultParallel(),
		"sweep cell parallelism (1 = serial executor; output rows are identical either way)")
	jsonPath := flag.String("json", "", "also write the experiment's results as JSON (routing, autoscale, slo, chaos, kernel)")
	tracePath := flag.String("trace", "",
		"write a Perfetto-loadable Chrome trace of one instrumented routing run (routing only)")
	timeseriesPath := flag.String("timeseries", "",
		"write one instrumented routing run's windowed time-series as JSON, plus a .csv sibling (routing only)")
	compare := flag.Bool("compare-serial", false,
		"run the sweep twice (serial then -parallel) and record the measured wall-clock speedup; fails unless rows are byte-identical (routing, autoscale, slo, chaos)")
	flag.Parse()

	if err := run(*exp, *scenario, *dataset, *seed, *small, *parallel, *jsonPath, *tracePath, *timeseriesPath, *compare); err != nil {
		fmt.Fprintln(os.Stderr, "prefillbench:", err)
		os.Exit(1)
	}
}

// jsonExps and compareExps are the experiments that honour -json and
// -compare-serial; anything else rejects the flag instead of silently
// dropping it (a CI step would otherwise record no artifact and exit 0).
// "all" accepts every flag the experiments it contains accept and applies
// each to the ones that honour it.
var (
	jsonExps    = map[string]bool{"routing": true, "autoscale": true, "slo": true, "chaos": true, "kernel": true, "all": true}
	compareExps = map[string]bool{"routing": true, "autoscale": true, "slo": true, "chaos": true, "all": true}
)

func run(exp, scenario, dataset string, seed int64, small bool, parallel int, jsonPath, tracePath, timeseriesPath string, compare bool) error {
	if jsonPath != "" && !jsonExps[exp] {
		return fmt.Errorf("-json is not supported by -exp %s (use routing, autoscale, slo, chaos, kernel or all)", exp)
	}
	if tracePath != "" && exp != "routing" {
		return fmt.Errorf("-trace is not supported by -exp %s (use routing)", exp)
	}
	if timeseriesPath != "" && exp != "routing" {
		return fmt.Errorf("-timeseries is not supported by -exp %s (use routing)", exp)
	}
	if compare && !compareExps[exp] {
		return fmt.Errorf("-compare-serial is not supported by -exp %s (use routing, autoscale, slo or chaos)", exp)
	}
	switch exp {
	case "table1":
		return table1(seed)
	case "table2":
		return table2(parallel)
	case "table3":
		return table3()
	case "fig3":
		return fig3()
	case "fig4":
		return fig4()
	case "fig5":
		return fig5()
	case "fig6", "fig7":
		return figQPS(exp, scenario, dataset, seed, small, parallel)
	case "fig8":
		return fig8(seed, parallel)
	case "fig9":
		return fig9(seed, parallel)
	case "fig10":
		return fig10()
	case "fig11":
		return fig11(seed, parallel)
	case "sec2.3":
		return sec23()
	case "sec6.3":
		return sec63()
	case "routing":
		return routing(seed, small, parallel, jsonPath, tracePath, timeseriesPath, compare)
	case "autoscale":
		return autoscaleExp(seed, small, parallel, jsonPath, compare)
	case "slo":
		return sloExp(seed, small, parallel, jsonPath, compare)
	case "chaos":
		return chaosExp(seed, small, parallel, jsonPath, compare)
	case "kernel":
		return kernelExp(small, jsonPath)
	case "all":
		// Under -exp all, -json names a directory: each JSON-producing
		// experiment writes its own BENCH_*.json file into it.
		var routingJSON, autoscaleJSON, sloJSON, chaosJSON, kernelJSON string
		if jsonPath != "" {
			if err := os.MkdirAll(jsonPath, 0o755); err != nil {
				return fmt.Errorf("-json directory: %w", err)
			}
			routingJSON = filepath.Join(jsonPath, "BENCH_routing.json")
			autoscaleJSON = filepath.Join(jsonPath, "BENCH_autoscale.json")
			sloJSON = filepath.Join(jsonPath, "BENCH_slo.json")
			chaosJSON = filepath.Join(jsonPath, "BENCH_chaos.json")
			kernelJSON = filepath.Join(jsonPath, "BENCH_kernel.json")
		}
		for _, e := range []string{"table1", "table2", "table3", "fig3", "fig4", "fig5", "fig10", "sec2.3", "sec6.3"} {
			if err := run(e, scenario, dataset, seed, small, parallel, "", "", "", false); err != nil {
				return err
			}
		}
		if err := routing(seed, true, parallel, routingJSON, "", "", compare); err != nil {
			return err
		}
		if err := autoscaleExp(seed, true, parallel, autoscaleJSON, compare); err != nil {
			return err
		}
		if err := sloExp(seed, true, parallel, sloJSON, compare); err != nil {
			return err
		}
		if err := chaosExp(seed, true, parallel, chaosJSON, compare); err != nil {
			return err
		}
		if err := kernelExp(true, kernelJSON); err != nil {
			return err
		}
		return figQPS("fig6", scenario, dataset, seed, true, parallel)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func header(title string) *tabwriter.Writer {
	fmt.Printf("\n=== %s ===\n", title)
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// printExecutor summarizes a sweep's cell-executor telemetry under its
// table.
func printExecutor(stats experiments.CellStats) {
	fmt.Printf("executor: %d cells x%d workers, wall %.2fs, serial-equivalent %.2fs, speedup %.2fx, %.0f allocs/cell\n",
		stats.Cells, stats.Parallelism, stats.WallSeconds, stats.SerialEquivalentSeconds,
		stats.Speedup, stats.AllocsPerCell)
}

// benchEnvelope is the sweep JSON shape: result rows plus the executor's
// wall-clock/allocation telemetry, and (under -compare-serial) the
// measured serial-vs-parallel comparison.
type benchEnvelope struct {
	Rows             any                   `json:"rows"`
	Executor         experiments.CellStats `json:"executor"`
	SerialComparison *serialComparison     `json:"serial_comparison,omitempty"`
}

// serialComparison is a measured (not estimated) speedup: the same sweep
// executed twice, once at parallel=1 and once at the requested
// parallelism, wall clock against wall clock. Rows must be byte-identical
// between the two runs — prefillbench fails otherwise, so the CI smoke
// step doubles as a determinism oracle.
type serialComparison struct {
	SerialWallSeconds   float64 `json:"serial_wall_seconds"`
	ParallelWallSeconds float64 `json:"parallel_wall_seconds"`
	Parallelism         int     `json:"parallelism"`
	HostCPUs            int     `json:"host_cpus"`
	MeasuredSpeedup     float64 `json:"measured_speedup"`
	RowsByteIdentical   bool    `json:"rows_byte_identical"`
}

// compareSerial reruns a sweep at parallel=1 against already-obtained
// parallel results: it checks row-level byte identity and returns the
// measured wall-clock comparison.
func compareSerial[T any](parRows []T, parStats experiments.CellStats,
	runSerial func() ([]T, experiments.CellStats, error)) (*serialComparison, error) {
	serialRows, serialStats, err := runSerial()
	if err != nil {
		return nil, fmt.Errorf("serial comparison run: %w", err)
	}
	a, err := json.Marshal(serialRows)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(parRows)
	if err != nil {
		return nil, err
	}
	cmp := &serialComparison{
		SerialWallSeconds:   serialStats.WallSeconds,
		ParallelWallSeconds: parStats.WallSeconds,
		Parallelism:         parStats.Parallelism,
		HostCPUs:            parStats.HostCPUs,
		RowsByteIdentical:   string(a) == string(b),
	}
	if cmp.ParallelWallSeconds > 0 {
		cmp.MeasuredSpeedup = cmp.SerialWallSeconds / cmp.ParallelWallSeconds
	}
	if !cmp.RowsByteIdentical {
		return cmp, fmt.Errorf("determinism violation: parallel rows diverge from serial rows")
	}
	fmt.Printf("serial comparison: serial %.2fs vs parallel %.2fs at x%d workers (%d CPUs) = %.2fx, rows byte-identical\n",
		cmp.SerialWallSeconds, cmp.ParallelWallSeconds, cmp.Parallelism, cmp.HostCPUs, cmp.MeasuredSpeedup)
	return cmp, nil
}

// writeJSON writes v to path (pretty-printed, trailing newline).
func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}

func table1(seed int64) error {
	w := header("Table 1: dataset summary")
	fmt.Fprintln(w, "dataset\tusers\trequests\treq/user\tmean len\tmax len\ttotal tokens")
	for _, r := range experiments.Table1(seed) {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.0f\t%d\t%d\n",
			r.Dataset, r.Users, r.Requests, r.RequestsPerUser, r.MeanLen, r.MaxLen, r.TotalTokens)
	}
	return w.Flush()
}

func table2(parallel int) error {
	rows, stats, err := experiments.Table2Parallel(parallel)
	if err != nil {
		return err
	}
	w := header("Table 2: max input length (tokens)")
	fmt.Fprintln(w, "engine\tGPU\tMIL\tWL1\tWL2")
	mark := func(b bool) string {
		if b {
			return "ok"
		}
		return "x"
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%v\t%s\t%d\t%s\t%s\n", r.Engine, r.Scenario, r.MIL, mark(r.WL1OK), mark(r.WL2OK))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printExecutor(stats)
	return nil
}

func table3() error {
	w := header("Table 3: hardware and models")
	fmt.Fprintln(w, "scenario\tGPU\tcount\tmem GiB\tlink\tmodel\tweights GiB")
	for _, r := range experiments.Table3() {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.0f\t%s\t%s\t%.1f\n",
			r.Scenario, r.GPUName, r.GPUCount, r.MemoryGiB, r.Interconnect, r.ModelName, r.WeightGiB)
	}
	return w.Flush()
}

func fig3() error {
	res, err := experiments.Figure3()
	if err != nil {
		return err
	}
	w := header("Figure 3: memory trace peaks (32,768 tokens, Llama-3.1-8B)")
	gib := func(b int64) float64 { return float64(b) / (1 << 30) }
	fmt.Fprintf(w, "configuration\tpeak above weights\ttotal peak (incl %.1f GiB weights)\ttrace events\n", gib(res.WeightBytes))
	fmt.Fprintf(w, "standard prefill\t%.2f GiB\t%.2f GiB\t%d\n",
		gib(res.StandardPeak), gib(res.StandardPeak+res.WeightBytes), len(res.Standard))
	fmt.Fprintf(w, "hybrid prefill\t%.2f GiB\t%.2f GiB\t%d\n",
		gib(res.HybridPeak), gib(res.HybridPeak+res.WeightBytes), len(res.Hybrid))
	fmt.Fprintf(w, "saving\t%.2f GiB\t\t\n", gib(res.StandardPeak-res.HybridPeak))
	return w.Flush()
}

func fig4() error {
	w := header("Figure 4: MLP tensor sizes (32,768 tokens, Llama-3.1-8B)")
	fmt.Fprintln(w, "tensor\tshape\tMiB\tvs one-layer KV")
	for _, r := range experiments.Figure4() {
		fmt.Fprintf(w, "%s\t%dx%d\t%.0f\t%.1fx\n",
			r.Tensor, r.Shape[0], r.Shape[1], float64(r.Bytes)/(1<<20), r.VsOneLayerKV)
	}
	return w.Flush()
}

func fig5() error {
	rows, err := experiments.Figure5()
	if err != nil {
		return err
	}
	w := header("Figure 5: scheduling walkthrough (A<C<B<D, cache holds one request)")
	fmt.Fprintln(w, "policy\texecution order\tcache hits")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\n", r.Policy, strings.Join(r.Order, ","), r.CacheHits)
	}
	return w.Flush()
}

func figQPS(which, scenario, dataset string, seed int64, small bool, parallel int) error {
	sc, err := experiments.ScenarioByName(scenario)
	if err != nil {
		return err
	}
	kind := experiments.PostRecommendation
	if strings.HasPrefix(dataset, "credit") {
		kind = experiments.CreditVerification
	}
	panel, stats, err := qpsPanel(sc, kind, seed, small, parallel)
	if err != nil {
		return err
	}
	metric := "mean"
	if which == "fig7" {
		metric = "p99"
	}
	w := header(fmt.Sprintf("Figure %s panel: %s / %s (saturation %.3f qps)",
		strings.TrimPrefix(which, "fig"), panel.Scenario, panel.Dataset, panel.SaturationQPS))
	fmt.Fprintf(w, "engine\tqps\t%s latency (s)\ttput (req/s)\thit rate\tinfeasible\n", metric)
	for _, p := range panel.Points {
		lat := p.MeanLatency
		if which == "fig7" {
			lat = p.P99Latency
		}
		fmt.Fprintf(w, "%v\t%.3f\t%.2f\t%.3f\t%.2f\t%.2f\n",
			p.Engine, p.QPS, lat, p.ThroughputRPS, p.CacheHitRate, p.InfeasibleFrac)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printExecutor(stats)
	return nil
}

func qpsPanel(sc experiments.Scenario, kind experiments.DatasetKind, seed int64, small bool, parallel int) (*experiments.QPSLatencyPanel, experiments.CellStats, error) {
	if !small {
		return experiments.QPSLatencyParallel(sc, kind, nil, seed, parallel)
	}
	// Scaled-down panel: same grid over the small dataset.
	ds := experiments.SmallDataset(kind, seed)
	return experiments.QPSLatencyOn(sc, ds.Name+" (small)", ds, nil, seed, parallel)
}

func fig8(seed int64, parallel int) error {
	rows, stats, err := experiments.Figure8Parallel(seed, parallel)
	if err != nil {
		return err
	}
	w := header("Figure 8: credit-verification throughput, 2xH100")
	fmt.Fprintln(w, "engine\tNVLink\tthroughput (req/s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%v\t%v\t%.4f\n", r.Engine, r.NVLink, r.ThroughputRPS)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printExecutor(stats)
	return nil
}

func fig9(seed int64, parallel int) error {
	rows, stats, err := experiments.Figure9Parallel(seed, parallel)
	if err != nil {
		return err
	}
	w := header("Figure 9: post-recommendation throughput vs QPS, 2xH100 (PCIe)")
	fmt.Fprintln(w, "engine\toffered qps\tthroughput (req/s)\thit rate")
	for _, r := range rows {
		fmt.Fprintf(w, "%v\t%.2f\t%.3f\t%.2f\n", r.Engine, r.QPS, r.ThroughputRPS, r.CacheHitRate)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printExecutor(stats)
	return nil
}

func fig10() error {
	rows, err := experiments.Figure10()
	if err != nil {
		return err
	}
	w := header("Figure 10: hybrid prefilling MIL ablation (Qwen-2.5-32B FP8, A100)")
	fmt.Fprintln(w, "configuration\tmax input length")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\n", r.Config, r.MIL)
	}
	return w.Flush()
}

func fig11(seed int64, parallel int) error {
	curves, stats, err := experiments.Figure11Parallel(seed, parallel)
	if err != nil {
		return err
	}
	w := header("Figure 11: latency CDF under fairness parameter λ")
	fmt.Fprintln(w, "λ\tmean latency (s)\tp99 latency (s)")
	for _, c := range curves {
		fmt.Fprintf(w, "%.0f\t%.2f\t%.2f\n", c.Lambda, c.MeanLatency, c.P99Latency)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printExecutor(stats)
	return nil
}

func routing(seed int64, small bool, parallel int, jsonPath, tracePath, timeseriesPath string, compare bool) error {
	rows, stats, err := experiments.RoutingSweepParallel(seed, small, parallel)
	if err != nil {
		return err
	}
	var cmp *serialComparison
	if compare {
		cmp, err = compareSerial(rows, stats, func() ([]experiments.RoutingSweepRow, experiments.CellStats, error) {
			return experiments.RoutingSweepParallel(seed, small, 1)
		})
		if err != nil {
			return err
		}
	}
	w := header("Routing: policy comparison, 4x PrefillOnly on L4")
	fmt.Fprintln(w, "dataset\tpolicy\tqps\tmean JCT (s)\tp99 (s)\thit rate\tbalance\trejected")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.2f\t%.3f\t%.3f\t%.2f\t%.2f\t%d\n",
			r.Dataset, r.Policy, r.QPS, r.MeanJCT, r.P99JCT, r.CacheHitRate, r.BalanceRatio, r.Rejected)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printExecutor(stats)
	if jsonPath != "" {
		if err := writeJSON(jsonPath, benchEnvelope{Rows: rows, Executor: stats, SerialComparison: cmp}); err != nil {
			return err
		}
	}
	if tracePath != "" {
		if err := writeRoutingTrace(tracePath, seed, small); err != nil {
			return err
		}
	}
	if timeseriesPath != "" {
		return writeRoutingTimeseries(timeseriesPath, seed, small)
	}
	return nil
}

// writeRoutingTimeseries executes one dedicated routing run with the
// windowed time-series collector attached — the sweep cells stay
// uninstrumented — and writes the series as JSON plus a CSV sibling.
func writeRoutingTimeseries(path string, seed int64, small bool) error {
	sc, err := experiments.ScenarioByName("L4")
	if err != nil {
		return err
	}
	const instances = 4
	ds := experiments.RoutingDatasets(seed, small)[0] // the Zipf-skewed scenario
	sat, err := experiments.SaturationQPS(experiments.PrefillOnly, sc, ds.Clone())
	if err != nil {
		return fmt.Errorf("timeseries saturation on %s: %w", ds.Name, err)
	}
	res, ts, err := experiments.TimeseriesRoutingRun(experiments.RoutingRunConfig{
		Policy: experiments.AffinityLoadPolicy, Scenario: sc, Dataset: ds.Clone(),
		QPS: sat * instances / 2 * 0.9, Seed: seed, Instances: instances,
	}, 0)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	csvPath := strings.TrimSuffix(path, filepath.Ext(path)) + ".csv"
	f, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	if err := ts.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s and %s: %d windows over %d completed + %d rejected requests\n",
		path, csvPath, len(ts.Windows()), res.Completed, res.Rejected)
	return nil
}

// writeRoutingTrace executes one dedicated instrumented routing run — the
// sweep cells stay untraced so their determinism and allocation profile are
// untouched — and exports its flight recorder as Chrome trace-event JSON.
func writeRoutingTrace(path string, seed int64, small bool) error {
	sc, err := experiments.ScenarioByName("L4")
	if err != nil {
		return err
	}
	const instances = 4
	ds := experiments.RoutingDatasets(seed, small)[0] // the Zipf-skewed scenario
	sat, err := experiments.SaturationQPS(experiments.PrefillOnly, sc, ds.Clone())
	if err != nil {
		return fmt.Errorf("trace saturation on %s: %w", ds.Name, err)
	}
	res, rec, err := experiments.TracedRoutingRun(experiments.RoutingRunConfig{
		Policy: experiments.AffinityLoadPolicy, Scenario: sc, Dataset: ds,
		QPS: sat * instances / 2 * 0.9, Seed: seed, Instances: instances,
	}, 0)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s: %d spans (%d dropped) over %d requests — open in https://ui.perfetto.dev\n",
		path, rec.Len(), rec.Dropped(), res.Completed+res.Rejected)
	return nil
}

func autoscaleExp(seed int64, small bool, parallel int, jsonPath string, compare bool) error {
	rows, stats, err := experiments.AutoscaleSweepParallel(seed, small, parallel)
	if err != nil {
		return err
	}
	var cmp *serialComparison
	if compare {
		cmp, err = compareSerial(rows, stats, func() ([]experiments.AutoscaleSweepRow, experiments.CellStats, error) {
			return experiments.AutoscaleSweepParallel(seed, small, 1)
		})
		if err != nil {
			return err
		}
	}
	w := header("Autoscale: fixed fleets vs elastic pool, square-wave burst on L4")
	fmt.Fprintln(w, "mode\tmean JCT (s)\tp99 (s)\tshed\tGPU-s\tsavings vs peak\tpool\tups\tdowns\tcold start (s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.1f\t%.1f%%\t[%d,%d]\t%d\t%d\t%.2f\n",
			r.Mode, r.MeanJCT, r.P99JCT, r.ShedRate, r.GPUSeconds, 100*r.GPUSavingsVsPeak,
			r.TroughInstances, r.PeakInstances, r.ScaleUps, r.ScaleDowns, r.ColdStartSeconds)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printExecutor(stats)
	if jsonPath != "" {
		return writeJSON(jsonPath, benchEnvelope{Rows: rows, Executor: stats, SerialComparison: cmp})
	}
	return nil
}

func sloExp(seed int64, small bool, parallel int, jsonPath string, compare bool) error {
	rows, stats, err := experiments.SLOSweepParallel(seed, small, parallel)
	if err != nil {
		return err
	}
	var cmp *serialComparison
	if compare {
		cmp, err = compareSerial(rows, stats, func() ([]experiments.SLOSweepRow, experiments.CellStats, error) {
			return experiments.SLOSweepParallel(seed, small, 1)
		})
		if err != nil {
			return err
		}
	}
	w := header("SLO classes: class-blind vs class-aware at equal GPU-seconds, fixed fleet on L4")
	fmt.Fprintln(w, "mode\tint mean (s)\tint p99 (s)\tint shed\tbatch mean (s)\tbatch shed\tbatch goodput (tok/s)\tGPU-s\tcompleted")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%d/%d\t%.3f\t%d/%d\t%.0f\t%.1f\t%d\n",
			r.Mode, r.InteractiveMeanJCT, r.InteractiveP99JCT, r.InteractiveShed, r.InteractiveOffered,
			r.BatchMeanJCT, r.BatchShed, r.BatchOffered, r.BatchGoodputTPS, r.GPUSeconds, r.Completed)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printExecutor(stats)
	if jsonPath != "" {
		return writeJSON(jsonPath, benchEnvelope{Rows: rows, Executor: stats, SerialComparison: cmp})
	}
	return nil
}

func chaosExp(seed int64, small bool, parallel int, jsonPath string, compare bool) error {
	rows, stats, err := experiments.ChaosSweepParallel(seed, small, parallel)
	if err != nil {
		return err
	}
	var cmp *serialComparison
	if compare {
		cmp, err = compareSerial(rows, stats, func() ([]experiments.ChaosSweepRow, experiments.CellStats, error) {
			return experiments.ChaosSweepParallel(seed, small, 1)
		})
		if err != nil {
			return err
		}
	}
	w := header("Chaos: fault injection and recovery, elastic pool on L4")
	fmt.Fprintln(w, "mode\tmean JCT (s)\tp99 (s)\tshed\tfaults\torphans (rerouted/shed)\trecoveries\tmean recovery (s)\tups\tGPU-s\tp99 degr")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%d\t%d (%d/%d)\t%d\t%.1f\t%d\t%.1f\t%+.0f%%\n",
			r.Mode, r.MeanJCT, r.P99JCT, r.ShedRate, r.Faults,
			r.Orphaned, r.OrphansRerouted, r.OrphansShed,
			r.Recoveries, r.MeanRecoverySeconds, r.ScaleUps, r.GPUSeconds,
			100*r.P99DegradationVsBaseline)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printExecutor(stats)
	if jsonPath != "" {
		return writeJSON(jsonPath, benchEnvelope{Rows: rows, Executor: stats, SerialComparison: cmp})
	}
	return nil
}

func kernelExp(small bool, jsonPath string) error {
	events := 4_000_000
	if small {
		events = 1_000_000
	}
	res, err := experiments.KernelBench(events)
	if err != nil {
		return err
	}
	w := header(fmt.Sprintf("Kernel: sim event throughput, %d events at depth %d (%d CPUs, %s)",
		res.Events, res.Depth, res.HostCPUs, res.GoVersion))
	fmt.Fprintln(w, "path\tevents/sec\tallocs/event")
	fmt.Fprintf(w, "closure (pre-refactor idiom)\t%.0f\t%.2f\n", res.ClosureEventsPerSec, res.ClosureAllocsPerEvent)
	fmt.Fprintf(w, "fast path (AtFunc/AfterFunc)\t%.0f\t%.2f\n", res.FastPathEventsPerSec, res.FastPathAllocsPerEvent)
	fmt.Fprintf(w, "speedup\t%.2fx\t\n", res.FastPathSpeedup)
	if err := w.Flush(); err != nil {
		return err
	}
	if jsonPath != "" {
		return writeJSON(jsonPath, res)
	}
	return nil
}

func sec23() error {
	res, err := experiments.Section23(64)
	if err != nil {
		return err
	}
	w := header("§2.3: prefill-only vs generative latency (Llama-3.1-8B, H100)")
	fmt.Fprintln(w, "request\tlatency (s)")
	fmt.Fprintf(w, "2048 in / 1 out\t%.3f\n", res.PrefillSeconds)
	fmt.Fprintf(w, "2048 in / 256 out (batch %d)\t%.3f\n", res.DecodeBatch, res.GenerativeSeconds)
	fmt.Fprintf(w, "slowdown\t%.2fx (paper: ~1.5x)\n", res.Slowdown)
	return w.Flush()
}

func sec63() error {
	res, err := experiments.Section63()
	if err != nil {
		return err
	}
	w := header("§6.3: JCT proxy validation (Qwen-32B FP8, A100)")
	fmt.Fprintf(w, "Pearson(JCT, cache-miss tokens)\t%.4f (paper: 0.987)\n", res.Pearson)
	fmt.Fprintf(w, "grid points\t%d\n", res.Points)
	return w.Flush()
}
