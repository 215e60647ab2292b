package experiments

// Multi-tenant SLO experiment: the same two-class workload (Zipf-skewed
// interactive traffic mixed with long batch documents, bursty open-loop
// arrivals) served by the same fixed fleet under two configurations:
//
//   - class-blind: one admission bound for every request, the paper's
//     class-blind Algorithm-1 scheduler — batch documents sit ahead of
//     interactive requests in the queue and consume the shared admission
//     headroom, so bursts shed interactive load and inflate its tail.
//   - class-aware: batch gets a smaller backlog budget (shed first, before
//     interactive headroom is touched) and a JCT weight > 1 in the
//     calibrated heap key (yields the GPU to interactive work), while the
//     interactive bound is unchanged.
//
// The fleet is fixed and identical in both runs, so GPU-seconds are equal
// by construction up to makespan drift: the comparison isolates what the
// class machinery buys — interactive p99 — and what it costs — batch
// goodput and batch shed.

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/workload"
)

// SLORunConfig describes one fixed-fleet run of the two-class workload.
type SLORunConfig struct {
	Scenario Scenario
	// Dataset provides the requests (workload.ClassMix); arrival times are
	// overwritten by the open-loop process.
	Dataset *workload.Dataset
	// Rate is the time-varying offered load; MaxRate bounds it.
	Rate    workload.RateFn
	MaxRate float64
	Seed    int64
	// Instances is the fixed fleet size (default 2).
	Instances int
	// MaxBacklogSeconds is the interactive admission bound (default 30).
	MaxBacklogSeconds float64
	// BatchBacklogSeconds is the batch-class budget; 0 leaves batch on the
	// shared bound (class-blind admission).
	BatchBacklogSeconds float64
	// BatchWeight is the batch-class JCT multiplier in the calibrated
	// scheduler; 0 or 1 leaves scheduling class-blind.
	BatchWeight float64
	// Lambda overrides PrefillOnly's fairness parameter (0 = default).
	Lambda float64
}

func (rc *SLORunConfig) defaults() error {
	if rc.Dataset == nil {
		return fmt.Errorf("experiments: SLORunConfig.Dataset is required")
	}
	if rc.Rate == nil {
		return fmt.Errorf("experiments: SLORunConfig.Rate is required")
	}
	if rc.Instances <= 0 {
		rc.Instances = 2
	}
	if rc.MaxBacklogSeconds == 0 {
		rc.MaxBacklogSeconds = 30
	}
	return nil
}

// classAware reports whether any per-class mechanism is active.
func (rc *SLORunConfig) classAware() bool {
	return rc.BatchBacklogSeconds > 0 || rc.BatchWeight > 1
}

// SLORunResult aggregates one two-class run.
type SLORunResult struct {
	// Mode is "class-blind" or "class-aware".
	Mode    string
	Dataset string
	// Interactive and Batch summarize the completed requests of each class.
	Interactive, Batch metrics.Summary
	// InteractiveShed and BatchShed count per-class admission rejects.
	InteractiveShed, BatchShed int
	// InteractiveOffered and BatchOffered count per-class offered load.
	InteractiveOffered, BatchOffered int
	// BatchGoodputTPS is completed batch input tokens per second of
	// makespan — the throughput-oriented tenant's figure of merit.
	BatchGoodputTPS float64
	// GPUSeconds is fleet GPUs × makespan (the fleet is fixed).
	GPUSeconds      float64
	MakespanSeconds float64
	Completed       int
}

// SLORun executes one fixed-fleet two-class run to completion.
func SLORun(rc SLORunConfig) (*SLORunResult, error) {
	if err := rc.defaults(); err != nil {
		return nil, err
	}
	spec := scenarioSpec(rc.Scenario, rc.Dataset)
	spec.Options.Lambda = rc.Lambda
	if rc.BatchWeight > 1 {
		spec.Options.ClassWeights = map[sched.Class]float64{sched.ClassBatch: rc.BatchWeight}
	}
	spec.Instances = rc.Instances
	spec.Router = &router.Config{Policy: router.AffinityLoad{}, MaxBacklogSeconds: rc.MaxBacklogSeconds}
	if rc.BatchBacklogSeconds > 0 {
		spec.Router.ClassBacklogSeconds = map[sched.Class]float64{sched.ClassBatch: rc.BatchBacklogSeconds}
	}
	f, err := cluster.New(spec)
	if err != nil {
		return nil, err
	}
	arrivals, err := workload.AssignOpenLoopArrivals(rc.Dataset, rc.Rate, rc.MaxRate, rc.Seed)
	if err != nil {
		return nil, err
	}
	res := &SLORunResult{Mode: "class-blind", Dataset: rc.Dataset.Name}
	if rc.classAware() {
		res.Mode = "class-aware"
	}
	for _, a := range arrivals {
		if a.Req.Class == sched.ClassBatch {
			res.BatchOffered++
		} else {
			res.InteractiveOffered++
		}
	}
	f.Arrive(arrivals)
	end, err := f.Run()
	if err != nil {
		return nil, err
	}
	res.BatchShed = f.RejectedClass(sched.ClassBatch)
	res.InteractiveShed = f.Rejected() - res.BatchShed
	recs := f.Records()

	var interLats, batchLats []float64
	var batchTokens int64
	for _, r := range recs {
		if r.Req.Class == sched.ClassBatch {
			batchLats = append(batchLats, r.Latency())
			batchTokens += int64(r.Req.Len())
		} else {
			interLats = append(interLats, r.Latency())
		}
	}
	res.Interactive = metrics.Summarize(interLats)
	res.Batch = metrics.Summarize(batchLats)
	res.Completed = len(recs)
	res.MakespanSeconds = end
	res.GPUSeconds = f.GPUSeconds(end)
	if end > 0 {
		res.BatchGoodputTPS = float64(batchTokens) / end
	}
	return res, nil
}

// SLOSweepRow is one mode of the class-blind vs class-aware comparison.
type SLOSweepRow struct {
	Mode               string  `json:"mode"`
	Dataset            string  `json:"dataset"`
	InteractiveMeanJCT float64 `json:"interactive_mean_jct_seconds"`
	InteractiveP99JCT  float64 `json:"interactive_p99_jct_seconds"`
	InteractiveShed    int     `json:"interactive_shed"`
	InteractiveOffered int     `json:"interactive_offered"`
	BatchMeanJCT       float64 `json:"batch_mean_jct_seconds"`
	BatchShed          int     `json:"batch_shed"`
	BatchOffered       int     `json:"batch_offered"`
	BatchGoodputTPS    float64 `json:"batch_goodput_tokens_per_second"`
	GPUSeconds         float64 `json:"gpu_seconds"`
	Completed          int     `json:"completed"`
}

// SLOSweep runs the two-class workload through the class-blind and the
// class-aware configuration on an identical fixed fleet (equal
// GPU-seconds up to makespan drift) and reports both rows: class-aware
// must buy a strictly better interactive p99, paying with batch sheds
// that start before any interactive request is dropped. Serial
// convenience wrapper around SLOSweepParallel.
func SLOSweep(seed int64, small bool) ([]SLOSweepRow, error) {
	rows, _, err := SLOSweepParallel(seed, small, 1)
	return rows, err
}

// SLOSweepParallel is SLOSweep fanned across the cell executor: one
// saturation cell, then the class-blind and class-aware runs as
// independent cells, each on its own freshly generated dataset. Rows are
// byte-identical at any parallelism.
func SLOSweepParallel(seed int64, small bool, parallel int) ([]SLOSweepRow, CellStats, error) {
	sc, err := ScenarioByName("L4")
	if err != nil {
		return nil, CellStats{}, err
	}
	// Sizing: the fleet and interactive bound follow the autoscale sweep's
	// rules; the batch budget reserves the headroom between it and the
	// interactive bound for the latency tier, and the batch weight makes a
	// queued batch document (several thousand cache-cold tokens) rank
	// behind every plausible interactive request.
	instances, bound := 2, 8.0
	if !small {
		instances, bound = 4, 12.0
	}
	const (
		batchBudgetFrac = 0.35
		batchWeight     = 4.0
	)
	mkDataset := func() *workload.Dataset {
		if small {
			return workload.ClassMix(workload.ClassMixConfig{
				Interactive: workload.SkewedConfig{
					Users: 24, Requests: 120, ProfileMean: 3000, ProfileStd: 800,
					ProfileMin: 1500, ProfileMax: 5000,
				},
				BatchFraction: 0.25, BatchUsers: 6,
				BatchLenMin: 4000, BatchLenMax: 8000,
				Seed: seed,
			})
		}
		return workload.ClassMix(workload.ClassMixConfig{Seed: seed})
	}
	// Offered load: a square wave whose peak overruns the fleet, so the
	// burst front must be absorbed by admission control — the regime where
	// who gets shed is the whole game.
	satDS := mkDataset()
	sat, satStats, err := runCells(1, 1, func(int) (float64, error) {
		return SaturationQPS(PrefillOnly, sc, satDS)
	})
	if err != nil {
		return nil, satStats, fmt.Errorf("slo saturation: %w", err)
	}
	perInst := sat[0] / 2
	base := 0.6 * perInst * float64(instances)
	peak := 2.5 * perInst * float64(instances)
	const duty = 0.35
	avgRate := duty*peak + (1-duty)*base
	n := len(satDS.Requests)
	period := float64(n) / avgRate / 3
	rate := workload.SquareWaveRate(base, peak, period, duty)

	runs := []SLORunConfig{
		{Scenario: sc, Rate: rate, MaxRate: peak, Seed: seed, Instances: instances,
			MaxBacklogSeconds: bound},
		{Scenario: sc, Rate: rate, MaxRate: peak, Seed: seed, Instances: instances,
			MaxBacklogSeconds:   bound,
			BatchBacklogSeconds: batchBudgetFrac * bound,
			BatchWeight:         batchWeight},
	}
	rows, runStats, err := runCells(parallel, len(runs), func(i int) (SLOSweepRow, error) {
		rc := runs[i]
		rc.Dataset = mkDataset() // fresh dataset per cell: arrivals are restamped
		res, err := SLORun(rc)
		if err != nil {
			return SLOSweepRow{}, fmt.Errorf("slo %s: %w", rc.Dataset.Name, err)
		}
		return SLOSweepRow{
			Mode:               res.Mode,
			Dataset:            res.Dataset,
			InteractiveMeanJCT: res.Interactive.Mean,
			InteractiveP99JCT:  res.Interactive.P99,
			InteractiveShed:    res.InteractiveShed,
			InteractiveOffered: res.InteractiveOffered,
			BatchMeanJCT:       res.Batch.Mean,
			BatchShed:          res.BatchShed,
			BatchOffered:       res.BatchOffered,
			BatchGoodputTPS:    res.BatchGoodputTPS,
			GPUSeconds:         res.GPUSeconds,
			Completed:          res.Completed,
		}, nil
	})
	return rows, satStats.Merge(runStats), err
}
