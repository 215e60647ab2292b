// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) plus its inline micro-measurements. Each artifact has a
// dedicated function returning structured rows; cmd/prefillbench and the
// repository-level benchmarks print them.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/workload"
)

// scenarioSpec is the fleet spec every sweep starts from: the
// scenario's model and GPU, profiled to the dataset's longest request
// rounded up to the next thousand tokens.
func scenarioSpec(sc Scenario, ds *workload.Dataset) cluster.Spec {
	return cluster.Spec{Config: engine.Config{
		Model:         sc.Model,
		GPU:           sc.GPU,
		ProfileMaxLen: (ds.MaxLen/1000 + 1) * 1000,
	}}
}

// arrive schedules a dataset onto the fleet: Poisson arrivals at qps > 0,
// or closed-loop saturation (everything at t=0) otherwise.
func arrive(f *cluster.Fleet, ds *workload.Dataset, qps float64, seed int64) error {
	if qps <= 0 {
		for _, r := range ds.Requests {
			f.ArriveAt(0, r)
		}
		return nil
	}
	arrivals, err := workload.AssignPoissonArrivals(ds, qps, seed)
	if err != nil {
		return err
	}
	f.Arrive(arrivals)
	return nil
}

// latencyStats aggregates completion records: per-request latencies, their
// summary, and throughput over the busy span (first arrival to last
// finish).
func latencyStats(recs []engine.Record) (lats []float64, sum metrics.Summary, tputRPS float64) {
	firstArrival := math.Inf(1)
	lastFinish := 0.0
	for _, r := range recs {
		lats = append(lats, r.Latency())
		firstArrival = math.Min(firstArrival, r.Arrival)
		lastFinish = math.Max(lastFinish, r.Finish)
	}
	sum = metrics.Summarize(lats)
	if span := lastFinish - firstArrival; span > 0 && len(recs) > 0 {
		tputRPS = float64(len(recs)) / span
	}
	return lats, sum, tputRPS
}

// EngineKind enumerates the five systems of Figure 6.
type EngineKind = cluster.EngineKind

// The compared systems.
const (
	PrefillOnly      = cluster.PrefillOnly
	PagedAttention   = cluster.PagedAttention
	ChunkedPrefill   = cluster.ChunkedPrefill
	PipelineParallel = cluster.PipelineParallel
	TensorParallel   = cluster.TensorParallel
)

// AllEngines returns the five compared systems in the paper's legend order.
func AllEngines() []EngineKind {
	return []EngineKind{PrefillOnly, PagedAttention, ChunkedPrefill, PipelineParallel, TensorParallel}
}

// Scenario is one hardware/model row of Table 3.
type Scenario struct {
	// Name is the short scenario label used in figure captions.
	Name string
	// GPU is the device type (the scenario has two of them).
	GPU *hw.GPU
	// Model is the served model.
	Model *model.Config
}

// Scenarios returns the four rows of Table 3.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "L4", GPU: hw.L4(), Model: model.Llama31_8B()},
		{Name: "A100", GPU: hw.A100(), Model: model.Qwen32BFP8()},
		{Name: "H100", GPU: hw.H100PCIe(), Model: model.Llama33_70BFP8()},
		{Name: "H100-NVLink", GPU: hw.H100NVLink(), Model: model.Llama33_70BFP8()},
	}
}

// ScenarioByName looks a scenario up by its label.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("experiments: unknown scenario %q", name)
}

// DatasetKind selects a workload.
type DatasetKind int

const (
	// PostRecommendation is WL1 (Table 1 row 1).
	PostRecommendation DatasetKind = iota
	// CreditVerification is WL2 (Table 1 row 2).
	CreditVerification
)

// String returns the dataset's display name.
func (d DatasetKind) String() string {
	if d == CreditVerification {
		return "credit-verification"
	}
	return "post-recommendation"
}

// Generate builds the dataset with the paper's Table-1 parameters.
func (d DatasetKind) Generate(seed int64) *workload.Dataset {
	if d == CreditVerification {
		return workload.CreditVerification(workload.CreditVerificationConfig{Seed: seed})
	}
	return workload.PostRecommendation(workload.PostRecommendationConfig{Seed: seed})
}

// RunConfig describes one serving run (one line point of Figure 6).
type RunConfig struct {
	Kind     EngineKind
	Scenario Scenario
	// Dataset provides the requests; its ArrivalTime fields are
	// overwritten by the run.
	Dataset *workload.Dataset
	// QPS is the offered request rate (users arrive in Poisson bursts of
	// RequestsPerUser requests; see workload.AssignPoissonArrivals).
	// QPS <= 0 means closed-loop saturation: everything arrives at t=0.
	QPS float64
	// Seed drives the arrival process.
	Seed int64
	// Lambda overrides PrefillOnly's fairness parameter when > 0;
	// Lambda < 0 means literal zero.
	Lambda float64
	// TotalGPUs is the scenario's GPU count (default 2, as in §7.1).
	TotalGPUs int
}

// RunResult aggregates one run.
type RunResult struct {
	Kind      EngineKind
	Scenario  string
	Dataset   string
	QPS       float64
	Completed int
	// Latency statistics in seconds.
	Latency metrics.Summary
	// ThroughputRPS is completed requests over the busy span.
	ThroughputRPS float64
	// CacheHitRate is hit tokens / looked-up tokens across instances.
	CacheHitRate float64
	// InfeasibleFrac is the fraction of requests that needed the
	// beyond-MIL spill fallback.
	InfeasibleFrac float64
	// Latencies holds per-request latency (arrival order of completion)
	// for CDF plots.
	Latencies []float64
	// Records holds the raw completion records.
	Records []engine.Record
}

// Run executes one serving run to completion and aggregates it.
func Run(rc RunConfig) (*RunResult, error) {
	if rc.Dataset == nil {
		return nil, fmt.Errorf("experiments: RunConfig.Dataset is required")
	}
	gpus := rc.TotalGPUs
	if gpus <= 0 {
		gpus = 2
	}
	spec := scenarioSpec(rc.Scenario, rc.Dataset)
	spec.Kind = rc.Kind
	spec.Options.Lambda = rc.Lambda
	var err error
	if spec.Instances, err = rc.Kind.Instances(gpus); err != nil {
		return nil, err
	}
	f, err := cluster.New(spec)
	if err != nil {
		return nil, err
	}
	if err := arrive(f, rc.Dataset, rc.QPS, rc.Seed); err != nil {
		return nil, err
	}
	if _, err := f.Run(); err != nil {
		return nil, err
	}
	recs := f.Records()
	res := &RunResult{
		Kind:      rc.Kind,
		Scenario:  rc.Scenario.Name,
		Dataset:   rc.Dataset.Name,
		QPS:       rc.QPS,
		Completed: len(recs),
		Records:   recs,
	}
	res.Latencies, res.Latency, res.ThroughputRPS = latencyStats(recs)
	infeasible := 0
	for _, r := range recs {
		if r.Infeasible() {
			infeasible++
		}
	}
	res.InfeasibleFrac = float64(infeasible) / float64(len(recs))
	res.CacheHitRate = f.CacheHitRate()
	return res, nil
}

// SaturationQPS measures an engine's saturation throughput on a dataset:
// all requests offered at once, throughput in requests/second (the paper's
// "x" for picking the Figure-6 QPS grid).
func SaturationQPS(kind EngineKind, sc Scenario, ds *workload.Dataset) (float64, error) {
	res, err := Run(RunConfig{Kind: kind, Scenario: sc, Dataset: ds, QPS: 0})
	if err != nil {
		return 0, err
	}
	return res.ThroughputRPS, nil
}

// QPSGridMultipliers is the paper's sweep around saturation (§7.2).
var QPSGridMultipliers = []float64{0.25, 0.5, 1, 2, 3, 4}
