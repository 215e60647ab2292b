// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) plus its inline micro-measurements. Each artifact has a
// dedicated function returning structured rows; cmd/prefillbench and the
// repository-level benchmarks print them.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scheduleArrivals schedules a dataset onto the clock through submit:
// Poisson arrivals at qps > 0, or closed-loop saturation (everything at
// t=0) otherwise.
func scheduleArrivals(s *sim.Sim, ds *workload.Dataset, qps float64, seed int64, submit func(*sched.Request)) error {
	if qps > 0 {
		arrivals, err := workload.AssignPoissonArrivals(ds, qps, seed)
		if err != nil {
			return err
		}
		for _, a := range arrivals {
			a := a
			s.At(a.Time, func() { submit(a.Req) })
		}
		return nil
	}
	for _, r := range ds.Requests {
		r.ArrivalTime = 0
	}
	reqs := ds.Requests
	s.At(0, func() {
		for _, r := range reqs {
			submit(r)
		}
	})
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

// clusterHitRate aggregates prefix-cache hit rate across engines.
func clusterHitRate(engines []engine.Engine) float64 {
	var lookup, hit int64
	for _, e := range engines {
		if c := e.Cache(); c != nil {
			st := c.Stats()
			lookup += st.LookupTokens
			hit += st.HitTokens
		}
	}
	if lookup == 0 {
		return 0
	}
	return float64(hit) / float64(lookup)
}

// EngineKind enumerates the five systems of Figure 6.
type EngineKind int

const (
	// PrefillOnly is the paper's engine (internal/core).
	PrefillOnly EngineKind = iota
	// PagedAttention is the vLLM baseline.
	PagedAttention
	// ChunkedPrefill is the Sarathi-Serve baseline.
	ChunkedPrefill
	// PipelineParallel is the PP=2 baseline.
	PipelineParallel
	// TensorParallel is the TP=2 baseline.
	TensorParallel
)

// String returns the engine's display name.
func (k EngineKind) String() string {
	switch k {
	case PrefillOnly:
		return "PrefillOnly"
	case PagedAttention:
		return "PagedAttention"
	case ChunkedPrefill:
		return "ChunkedPrefill"
	case PipelineParallel:
		return "PipelineParallel"
	case TensorParallel:
		return "TensorParallel"
	default:
		return fmt.Sprintf("engine(%d)", int(k))
	}
}

// AllEngines returns the five compared systems in the paper's legend order.
func AllEngines() []EngineKind {
	return []EngineKind{PrefillOnly, PagedAttention, ChunkedPrefill, PipelineParallel, TensorParallel}
}

// Parallel reports whether the engine spans both GPUs of a scenario.
func (k EngineKind) Parallel() bool {
	return k == PipelineParallel || k == TensorParallel
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

// buildCluster constructs the engine instances for a run on s and returns
// the cluster; completions flow into onComplete.
func buildCluster(rc RunConfig, s *sim.Sim, onComplete func(engine.Record)) (*cluster.Cluster, error) {
	totalGPUs := rc.TotalGPUs
	if totalGPUs <= 0 {
		totalGPUs = 2
	}
	profLen := (rc.Dataset.MaxLen/1000 + 1) * 1000
	cfg := engine.Config{
		Model:         rc.Scenario.Model,
		GPU:           rc.Scenario.GPU,
		Sim:           s,
		ProfileMaxLen: profLen,
		OnComplete:    onComplete,
	}
	var engines []engine.Engine
	if rc.Kind.Parallel() {
		for g := 0; g < totalGPUs/2; g++ {
			var e engine.Engine
			var err error
			if rc.Kind == TensorParallel {
				e, err = engine.NewTensorParallel(cfg)
			} else {
				e, err = engine.NewPipelineParallel(cfg)
			}
			if err != nil {
				return nil, err
			}
			engines = append(engines, e)
		}
	} else {
		for g := 0; g < totalGPUs; g++ {
			var e engine.Engine
			var err error
			switch rc.Kind {
			case PrefillOnly:
				e, err = core.New(cfg, core.Options{Lambda: rc.Lambda})
			case PagedAttention:
				e, err = engine.NewPagedAttention(cfg)
			case ChunkedPrefill:
				e, err = engine.NewChunkedPrefill(cfg, 0)
			default:
				err = fmt.Errorf("experiments: unknown engine kind %v", rc.Kind)
			}
			if err != nil {
				return nil, err
			}
			engines = append(engines, e)
		}
	}
	return cluster.New(engines...)
}

// Run executes one serving run to completion and aggregates it.
func Run(rc RunConfig) (*RunResult, error) {
	if rc.Dataset == nil {
		return nil, fmt.Errorf("experiments: RunConfig.Dataset is required")
	}
	s := &sim.Sim{}
	var recs []engine.Record
	cl, err := buildCluster(rc, s, func(r engine.Record) { recs = append(recs, r) })
	if err != nil {
		return nil, err
	}

	if err := scheduleArrivals(s, rc.Dataset, rc.QPS, rc.Seed, cl.Submit); err != nil {
		return nil, err
	}
	s.Run()

	if len(recs) != len(rc.Dataset.Requests) {
		return nil, fmt.Errorf("experiments: %d of %d requests completed", len(recs), len(rc.Dataset.Requests))
	}
	res := &RunResult{
		Kind:     rc.Kind,
		Scenario: rc.Scenario.Name,
		Dataset:  rc.Dataset.Name,
		QPS:      rc.QPS,
		Records:  recs,
	}
	res.Completed = len(recs)
	res.Latencies, res.Latency, res.ThroughputRPS = latencyStats(recs)
	infeasible := 0
	for _, r := range recs {
		if r.Infeasible() {
			infeasible++
		}
	}
	res.InfeasibleFrac = float64(infeasible) / float64(len(recs))
	res.CacheHitRate = clusterHitRate(cl.Instances())
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
