// Package prefillonly is a Go reproduction of "PrefillOnly: An Inference
// Engine for Prefill-only Workloads in Large Language Model Applications"
// (SOSP 2025).
//
// The package exposes three surfaces:
//
//   - Simulation: build a cluster of serving engines (PrefillOnly or the
//     paper's four baselines) on modelled GPUs, drive it with workloads,
//     and collect per-request latency records. Everything is deterministic
//     and runs on a discrete-event clock.
//   - Serving: an OpenAI-compatible HTTP frontend (NewServer) that
//     tokenizes prompts, schedules them through PrefillOnly's calibrated
//     SRJF policy with prefix caching, and returns constrained
//     single-token completions with probability scores.
//   - Catalogs: the paper's model and GPU presets (Models, GPUs) and
//     workload generators (NewPostRecommendation, NewCreditVerification).
//
// README.md describes the architecture layer by layer; the committed
// BENCH_*.json files hold the measured sweep rows.
package prefillonly

import (
	"repro/internal/autoscale"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/timeseries"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Request is a prefill-only request: a tokenized prompt with a user
// identity (for routing and prefix sharing), an SLO class, and an
// optional allowed-token output constraint.
type Request = sched.Request

// Class is a request's SLO class: latency-sensitive interactive traffic
// versus throughput-oriented batch traffic. Classes select admission
// budgets (SimulationConfig.ClassBacklogSeconds), scheduling weights
// (SimulationConfig.ClassWeights) and autoscale treatment (only
// interactive pressure provisions capacity).
type Class = sched.Class

// The SLO classes. Unlabeled requests are interactive (the zero value),
// so single-tenant workloads behave exactly as before classes existed.
const (
	ClassInteractive = sched.ClassInteractive
	ClassBatch       = sched.ClassBatch
)

// ParseClass maps a label ("", "interactive", "batch") to its Class.
func ParseClass(s string) (Class, error) { return sched.ParseClass(s) }

// Record is the completion report of one request: arrival/start/finish
// timestamps, cache-hit length and spill accounting.
type Record = engine.Record

// ModelConfig describes a transformer architecture (layers, heads, MLP
// width, precisions) and derives every tensor size the engines account.
type ModelConfig = model.Config

// GPUSpec describes a device for the analytical performance model.
type GPUSpec = hw.GPU

// Dataset is a generated request population.
type Dataset = workload.Dataset

// Arrival pairs a request with its arrival time.
type Arrival = workload.Arrival

// LatencySummary holds order statistics of request latencies.
type LatencySummary = metrics.Summary

// TraceRecorder is the sim-time flight recorder
// (SimulationConfig.TraceSpans, ServerConfig.TraceSpans): a bounded ring
// of per-request lifecycle spans and fleet gauges. Its WriteTrace renders
// Chrome trace-event JSON loadable in Perfetto or chrome://tracing.
type TraceRecorder = trace.Recorder

// TraceSpan is one flight-recorder record.
type TraceSpan = trace.Span

// TimeseriesCollector is the windowed sim-time aggregation engine
// (SimulationConfig.TimeseriesSeconds, ServerConfig.TimeseriesSeconds):
// per-window throughput, arrival and shed rates, streaming latency
// quantiles, fleet gauges and per-class SLO attainment/burn rate.
type TimeseriesCollector = timeseries.Collector

// TimeseriesExport is the serialized series: configuration header plus
// one row per closed window (and a partial row for the open one in
// snapshots).
type TimeseriesExport = timeseries.Export

// TimeseriesWindow is one aggregation interval's row.
type TimeseriesWindow = timeseries.Window

// Model presets (Table 3 of the paper).
var (
	// Llama31_8B is meta-llama/Llama-3.1-8B (bf16).
	Llama31_8B = model.Llama31_8B
	// Qwen32BFP8 is DeepSeek-R1-Distill-Qwen-32B in FP8.
	Qwen32BFP8 = model.Qwen32BFP8
	// Llama33_70BFP8 is Llama-3.3-70B-Instruct in FP8.
	Llama33_70BFP8 = model.Llama33_70BFP8
)

// GPU presets (Table 3 of the paper).
var (
	// L4 is the NVIDIA L4 24 GB.
	L4 = hw.L4
	// A100 is the NVIDIA A100 40 GB PCIe.
	A100 = hw.A100
	// H100 is the NVIDIA H100 80 GB PCIe.
	H100 = hw.H100PCIe
	// H100NVLink is the H100 with an NVLink bridge.
	H100NVLink = hw.H100NVLink
)

// Models returns the model presets keyed by short name.
func Models() map[string]*ModelConfig { return model.Presets() }

// GPUs returns the GPU presets keyed by short name.
func GPUs() map[string]*GPUSpec { return hw.Presets() }

// PostRecommendationConfig parameterizes NewPostRecommendation; zero
// values take the paper's Table-1 numbers.
type PostRecommendationConfig = workload.PostRecommendationConfig

// CreditVerificationConfig parameterizes NewCreditVerification; zero
// values take the paper's Table-1 numbers.
type CreditVerificationConfig = workload.CreditVerificationConfig

// SkewedConfig parameterizes NewSkewed, the Zipf user-popularity scenario
// for routing experiments.
type SkewedConfig = workload.SkewedConfig

// ClassMixConfig parameterizes NewClassMix, the two-class SLO workload
// (Zipf-skewed interactive traffic mixed with long batch documents).
type ClassMixConfig = workload.ClassMixConfig

// AutoscaleConfig tunes the elastic instance pool
// (SimulationConfig.Autoscale): floor/ceiling, control tick, backlog and
// reject-rate triggers, and the cold-start delay (derived from the model
// and GPU catalogs when unset).
type AutoscaleConfig = autoscale.Config

// RateFn is a time-varying offered load in requests/second for the
// open-loop arrival generators.
type RateFn = workload.RateFn

// ColdStartSeconds prices bringing up one engine instance: streaming the
// model weights onto the device over the host PCIe link, plus the peer
// (PCIe/NVLink) shard exchange for multi-GPU instances.
func ColdStartSeconds(m *ModelConfig, g *GPUSpec, gpus int) float64 {
	return autoscale.ColdStartSeconds(m, g, gpus)
}

// NewPostRecommendation generates the paper's post-recommendation dataset
// (20 users × 50 posts over 11k–17k-token profiles).
func NewPostRecommendation(cfg PostRecommendationConfig) *Dataset {
	return workload.PostRecommendation(cfg)
}

// NewCreditVerification generates the paper's credit-verification dataset
// (60 users × one 40k–60k-token history).
func NewCreditVerification(cfg CreditVerificationConfig) *Dataset {
	return workload.CreditVerification(cfg)
}

// NewSkewed generates the Zipf-skewed user-popularity dataset: a few hot
// users dominate traffic, which is what differentiates routing policies
// (see SimulationConfig.RoutingPolicy).
func NewSkewed(cfg SkewedConfig) *Dataset {
	return workload.Skewed(cfg)
}

// NewClassMix generates the two-class SLO dataset: Zipf-skewed
// interactive traffic interleaved with long batch documents, each request
// labeled with its Class (see SimulationConfig.ClassBacklogSeconds and
// ClassWeights).
func NewClassMix(cfg ClassMixConfig) *Dataset {
	return workload.ClassMix(cfg)
}

// AssignPoissonArrivals stamps the paper's §7.1 arrival pattern onto a
// dataset at the given requests-per-second rate and returns the arrivals
// sorted by time.
func AssignPoissonArrivals(d *Dataset, qps float64, seed int64) ([]Arrival, error) {
	return workload.AssignPoissonArrivals(d, qps, seed)
}

// AssignOpenLoopArrivals stamps arrivals from a non-homogeneous Poisson
// process with the time-varying rate (bounded by maxRate) onto a dataset —
// the bursty/diurnal open-loop traffic the autoscale experiments use. See
// SquareWaveRate and DiurnalRate for rate profiles.
func AssignOpenLoopArrivals(d *Dataset, rate RateFn, maxRate float64, seed int64) ([]Arrival, error) {
	return workload.AssignOpenLoopArrivals(d, rate, maxRate, seed)
}

// SquareWaveRate alternates between base and peak requests/second with
// the given period and duty cycle (the burst autoscaling scenario).
func SquareWaveRate(base, peak, period, duty float64) RateFn {
	return workload.SquareWaveRate(base, peak, period, duty)
}

// DiurnalRate is a smooth day/night cycle between base and peak
// requests/second with the given period.
func DiurnalRate(base, peak, period float64) RateFn {
	return workload.DiurnalRate(base, peak, period)
}

// SummarizeLatencies computes order statistics over records' end-to-end
// latencies.
func SummarizeLatencies(records []Record) LatencySummary {
	xs := make([]float64, len(records))
	for i, r := range records {
		xs[i] = r.Latency()
	}
	return metrics.Summarize(xs)
}
