package prefillonly

import (
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/timeseries"
	"repro/internal/tokenizer"
	"repro/internal/trace"
)

// EngineName selects a serving engine implementation.
type EngineName string

// The five engines the paper compares.
const (
	// EnginePrefillOnly is the paper's engine: hybrid prefilling, suffix
	// KV discarding, SRJF with continuous JCT calibration.
	EnginePrefillOnly EngineName = "prefillonly"
	// EnginePagedAttention is the vLLM baseline (standard prefill, FCFS).
	EnginePagedAttention EngineName = "pagedattention"
	// EngineChunkedPrefill is the Sarathi-Serve baseline.
	EngineChunkedPrefill EngineName = "chunked-prefill"
	// EngineTensorParallel is TP=2 across a GPU pair.
	EngineTensorParallel EngineName = "tensor-parallel"
	// EnginePipelineParallel is PP=2 across a GPU pair.
	EnginePipelineParallel EngineName = "pipeline-parallel"
)

// SimulationConfig configures NewSimulation. Zero values take the paper's
// low-end setup: PrefillOnly on two L4 GPUs serving Llama-3.1-8B.
type SimulationConfig struct {
	// Engine selects the serving engine (default EnginePrefillOnly).
	Engine EngineName
	// Model is the served model (default Llama31_8B()).
	Model *ModelConfig
	// GPU is the device type (default L4()).
	GPU *GPUSpec
	// GPUs is the total device count (default 2). Parallel engines span
	// pairs; serial engines get one instance per GPU with user-id
	// routing.
	GPUs int
	// MaxInputLen is the profile-run length (default: 20000, or set it
	// to your workload's maximum).
	MaxInputLen int
	// Lambda is PrefillOnly's fairness parameter in ms of JCT credit per
	// second queued (default 500; negative means 0).
	Lambda float64
	// HostCacheBytes enables the §9 CPU KV-offload extension: evicted
	// prefix KV demotes to a host tier of this size and is restored over
	// the host link when that beats recomputation (0 = discard, the
	// paper's default).
	HostCacheBytes int64
	// RoutingPolicy selects the cluster frontend. Empty keeps the paper's
	// §7.1 first-appearance round-robin; "userhash", "leastloaded" or
	// "affinity" route through internal/router by live load and
	// prefix-cache affinity.
	RoutingPolicy string
	// MaxBacklogSeconds enables admission control in routed mode: requests
	// whose projected completion wait exceeds the bound are rejected and
	// counted (see Rejected) instead of queued. Requires RoutingPolicy.
	MaxBacklogSeconds float64
	// ClassBacklogSeconds overrides MaxBacklogSeconds per SLO class in
	// routed mode: a batch budget below the interactive bound sheds batch
	// load before interactive load is ever touched. Requires
	// RoutingPolicy.
	ClassBacklogSeconds map[Class]float64
	// ClassWeights deprioritizes SLO classes in PrefillOnly's calibrated
	// scheduler (class JCT × weight inside the heap key; batch weight > 1
	// makes batch yield to interactive). Requires EnginePrefillOnly.
	ClassWeights map[Class]float64
	// Autoscale enables the elastic instance pool (internal/autoscale):
	// the cluster starts at Autoscale.MinInstances engines and scales
	// between that floor and Autoscale.MaxInstances (default: the GPUs
	// fleet size) from live backlog and admission signals, paying a
	// model-load cold start per scale-up. Requires RoutingPolicy; the
	// cold-start delay derives from this config's Model and GPU unless
	// set explicitly.
	Autoscale *AutoscaleConfig
	// TraceSpans enables the sim-time flight recorder when non-zero: the
	// ring keeps that many recent spans (negative = DefaultMaxSpans).
	// Read it back with Trace(); its WriteTrace exports Perfetto-loadable
	// Chrome trace JSON. Disabled tracing costs nothing on the hot path.
	TraceSpans int
	// TraceSampleSeconds is the fleet-gauge sampling interval in sim
	// seconds when tracing is enabled (default 0.5).
	TraceSampleSeconds float64
	// TimeseriesSeconds enables the windowed time-series collector
	// (internal/timeseries) with that window width in sim seconds:
	// per-window throughput, arrival and shed rates, per-class latency
	// quantiles, fleet gauges and rolling SLO burn rate. Read it back
	// with Timeseries(); export with its WriteJSON/WriteCSV. Disabled
	// (0) costs nothing on the hot path; enabled it never perturbs the
	// simulation — records are bit-identical either way.
	TimeseriesSeconds float64
}

// Simulation is a deterministic serving cluster on a virtual clock.
type Simulation struct {
	fleet  *cluster.Fleet
	rec    *trace.Recorder       // flight recorder (TraceSpans config)
	ts     *timeseries.Collector // windowed series (TimeseriesSeconds config)
	tok    *tokenizer.Tokenizer
	nextID int64
}

// engineKinds maps the public engine names onto the fleet's engines.
var engineKinds = map[EngineName]cluster.EngineKind{
	EnginePrefillOnly:      cluster.PrefillOnly,
	EnginePagedAttention:   cluster.PagedAttention,
	EngineChunkedPrefill:   cluster.ChunkedPrefill,
	EngineTensorParallel:   cluster.TensorParallel,
	EnginePipelineParallel: cluster.PipelineParallel,
}

// NewSimulation builds the cluster (running each engine's profile run and
// sizing its prefix-cache pool) and returns a ready simulation.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) {
	if cfg.Engine == "" {
		cfg.Engine = EnginePrefillOnly
	}
	if cfg.Model == nil {
		cfg.Model = Llama31_8B()
	}
	if cfg.GPU == nil {
		cfg.GPU = L4()
	}
	if cfg.GPUs == 0 {
		cfg.GPUs = 2
	}
	if cfg.MaxInputLen == 0 {
		cfg.MaxInputLen = 20000
	}
	kind, ok := engineKinds[cfg.Engine]
	if !ok {
		return nil, fmt.Errorf("prefillonly: unknown engine %q", cfg.Engine)
	}
	instances, err := kind.Instances(cfg.GPUs)
	if err != nil {
		return nil, fmt.Errorf("prefillonly: %w", err)
	}
	spec := cluster.Spec{
		Kind: kind,
		Config: engine.Config{
			Model:          cfg.Model,
			GPU:            cfg.GPU,
			ProfileMaxLen:  cfg.MaxInputLen,
			HostCacheBytes: cfg.HostCacheBytes,
		},
		Options:   core.Options{Lambda: cfg.Lambda, ClassWeights: cfg.ClassWeights},
		Instances: instances,
	}
	// Validate routing config before the engines' expensive profile runs.
	if cfg.RoutingPolicy != "" {
		pol, err := router.PolicyByName(cfg.RoutingPolicy)
		if err != nil {
			return nil, err
		}
		spec.Router = &router.Config{
			Policy:              pol,
			MaxBacklogSeconds:   cfg.MaxBacklogSeconds,
			ClassBacklogSeconds: cfg.ClassBacklogSeconds,
		}
	} else if cfg.MaxBacklogSeconds != 0 {
		return nil, fmt.Errorf("prefillonly: MaxBacklogSeconds requires a RoutingPolicy")
	} else if len(cfg.ClassBacklogSeconds) != 0 {
		return nil, fmt.Errorf("prefillonly: ClassBacklogSeconds requires a RoutingPolicy")
	} else if cfg.Autoscale != nil {
		return nil, fmt.Errorf("prefillonly: Autoscale requires a RoutingPolicy")
	}
	if len(cfg.ClassWeights) != 0 && cfg.Engine != EnginePrefillOnly {
		return nil, fmt.Errorf("prefillonly: ClassWeights requires the %s engine", EnginePrefillOnly)
	}
	if cfg.Autoscale != nil {
		// Copy: the defaults must not write back into the caller's
		// config. The elastic pool starts at its floor; GPUs sizes the
		// default ceiling.
		a := *cfg.Autoscale
		if a.MaxInstances <= 0 {
			a.MaxInstances = instances
		}
		spec.Autoscale = &a
		spec.Instances = max(a.MinInstances, 1)
	}
	s := &Simulation{tok: tokenizer.New()}
	if cfg.TraceSpans != 0 {
		s.rec = trace.New(cfg.TraceSpans)
		spec.Config.Tracer = s.rec
		spec.TraceSampleSeconds = cfg.TraceSampleSeconds
		if spec.TraceSampleSeconds <= 0 {
			spec.TraceSampleSeconds = 0.5
		}
	}
	if cfg.TimeseriesSeconds > 0 {
		s.ts = timeseries.New(timeseries.Config{IntervalSeconds: cfg.TimeseriesSeconds})
		spec.Timeseries = s.ts
	}
	if s.fleet, err = cluster.New(spec); err != nil {
		return nil, err
	}
	return s, nil
}

// Now returns the current simulated time in seconds.
func (s *Simulation) Now() float64 { return s.fleet.Sim().Now() }

// SubmitAt schedules a request's arrival at absolute simulated time t.
func (s *Simulation) SubmitAt(t float64, r *Request) { s.fleet.ArriveAt(t, r) }

// SubmitText tokenizes a prompt and schedules its arrival at time t,
// returning the created request.
func (s *Simulation) SubmitText(t float64, userID int, prompt string, allowed []string) *Request {
	s.nextID++
	r := sched.NewRequest(Request{
		ID:            s.nextID,
		UserID:        userID,
		Tokens:        s.tok.Encode(prompt),
		AllowedTokens: allowed,
	})
	s.SubmitAt(t, r)
	return r
}

// SubmitDataset schedules an entire dataset with Poisson arrivals at the
// given request rate.
func (s *Simulation) SubmitDataset(d *Dataset, qps float64, seed int64) error {
	arrivals, err := AssignPoissonArrivals(d, qps, seed)
	if err != nil {
		return err
	}
	s.fleet.Arrive(arrivals)
	return nil
}

// Run drains the event queue (serving every submitted request) and returns
// the completion records in finish order. A drained run must account for
// every submission as completed or rejected, and routing must not fail;
// anything else is a programming error that fails loudly.
func (s *Simulation) Run() []Record {
	if _, err := s.fleet.Run(); err != nil {
		panic(fmt.Sprintf("prefillonly: %v", err))
	}
	return s.fleet.Records()
}

// Records returns the completions so far.
func (s *Simulation) Records() []Record { return s.fleet.Records() }

// Rejected returns the requests shed by admission control so far (always 0
// without a RoutingPolicy and MaxBacklogSeconds).
func (s *Simulation) Rejected() int { return s.fleet.Rejected() }

// RejectedClass returns the requests of one SLO class shed so far.
func (s *Simulation) RejectedClass(c Class) int { return s.fleet.RejectedClass(c) }

// Timeseries returns the windowed collector (nil unless
// TimeseriesSeconds was set).
func (s *Simulation) Timeseries() *timeseries.Collector { return s.ts }

// Trace returns the flight recorder (nil unless TraceSpans was set). Its
// WriteTrace exports the run as Chrome trace-event JSON for Perfetto.
func (s *Simulation) Trace() *trace.Recorder { return s.rec }

// Router returns the routing frontend (nil when the paper's §7.1
// first-appearance frontend is active).
func (s *Simulation) Router() *router.Router { return s.fleet.Router() }

// Autoscaler returns the elastic pool controller (nil without an
// Autoscale config).
func (s *Simulation) Autoscaler() *autoscale.Controller { return s.fleet.Controller() }

// CacheHitRate aggregates prefix-cache hit rate across instances.
func (s *Simulation) CacheHitRate() float64 { return s.fleet.CacheHitRate() }
