package prefillonly

import (
	"errors"
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/sim"
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
	// §7.1 first-appearance round-robin (internal/cluster); "userhash",
	// "leastloaded" or "affinity" route through internal/router by live
	// load and prefix-cache affinity.
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
	cfg             SimulationConfig
	clock           *sim.Sim
	cluster         *cluster.Cluster      // legacy §7.1 routing ("" policy)
	router          *router.Router        // load/affinity routing (non-empty policy)
	ctl             *autoscale.Controller // elastic pool (Autoscale config)
	rec             *trace.Recorder       // flight recorder (TraceSpans config)
	sampler         *trace.Sampler        // fleet-gauge ticks on the sim clock
	ts              *timeseries.Collector // windowed series (TimeseriesSeconds config)
	tok             *tokenizer.Tokenizer
	records         []Record
	submitted       int
	rejected        int
	rejectedByClass [sched.NumClasses]int
	nextID          int64
	// instances lists every engine ever created (autoscaled additions
	// included, released ones retained) for cumulative cache statistics.
	instances []engine.Engine
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
	if cfg.GPUs < 0 {
		return nil, fmt.Errorf("prefillonly: GPUs must be positive, got %d", cfg.GPUs)
	}
	if cfg.MaxInputLen == 0 {
		cfg.MaxInputLen = 20000
	}
	// Validate routing config before the engines' expensive profile runs.
	var pol router.Policy
	if cfg.RoutingPolicy != "" {
		var err error
		pol, err = router.PolicyByName(cfg.RoutingPolicy)
		if err != nil {
			return nil, err
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
	s := &Simulation{cfg: cfg, clock: &sim.Sim{}, tok: tokenizer.New()}
	if cfg.TraceSpans != 0 {
		s.rec = trace.New(cfg.TraceSpans)
		interval := cfg.TraceSampleSeconds
		if interval <= 0 {
			interval = 0.5
		}
		s.sampler = trace.NewSampler(s.clock, interval, s.sampleGauges)
	}
	if cfg.TimeseriesSeconds > 0 {
		s.ts = timeseries.New(timeseries.Config{
			IntervalSeconds: cfg.TimeseriesSeconds,
			Sample:          s.timeseriesGauges,
		})
		s.ts.Attach(s.clock)
	}

	c := engine.Config{
		Model:          cfg.Model,
		GPU:            cfg.GPU,
		Sim:            s.clock,
		ProfileMaxLen:  cfg.MaxInputLen,
		HostCacheBytes: cfg.HostCacheBytes,
		OnComplete: func(r Record) {
			if s.router != nil {
				s.router.Completed(r)
			}
			s.records = append(s.records, r)
			s.ts.Complete(r.Finish, r.Req.Class, r.Latency())
		},
		Tracer: s.rec,
	}
	mk := func() (engine.Engine, error) {
		switch cfg.Engine {
		case EnginePrefillOnly:
			return core.New(c, core.Options{Lambda: cfg.Lambda, ClassWeights: cfg.ClassWeights})
		case EnginePagedAttention:
			return engine.NewPagedAttention(c)
		case EngineChunkedPrefill:
			return engine.NewChunkedPrefill(c, 0)
		case EngineTensorParallel:
			return engine.NewTensorParallel(c)
		case EnginePipelineParallel:
			return engine.NewPipelineParallel(c)
		default:
			return nil, fmt.Errorf("prefillonly: unknown engine %q", cfg.Engine)
		}
	}
	perInstance := 1
	switch cfg.Engine {
	case EngineTensorParallel, EnginePipelineParallel:
		perInstance = 2
		if cfg.GPUs%2 != 0 {
			return nil, fmt.Errorf("prefillonly: %s needs an even GPU count, got %d", cfg.Engine, cfg.GPUs)
		}
	}
	factory := func() (engine.Engine, error) {
		e, err := mk()
		if err != nil {
			return nil, err
		}
		s.instances = append(s.instances, e)
		return e, nil
	}
	initial := cfg.GPUs / perInstance
	var acfg *AutoscaleConfig
	if cfg.Autoscale != nil {
		// Copy: the controller's defaults must not write back into the
		// caller's config. The elastic pool starts at its floor; GPUs
		// sizes the default ceiling.
		a := *cfg.Autoscale
		acfg = &a
		if acfg.MaxInstances <= 0 {
			acfg.MaxInstances = cfg.GPUs / perInstance
		}
		if acfg.Model == nil {
			acfg.Model = cfg.Model
		}
		if acfg.GPU == nil {
			acfg.GPU = cfg.GPU
		}
		if acfg.Tracer == nil {
			acfg.Tracer = s.rec
		}
		initial = acfg.MinInstances
		if initial <= 0 {
			initial = 1
		}
	}
	for g := 0; g < initial; g++ {
		if _, err := factory(); err != nil {
			return nil, err
		}
	}
	if pol != nil {
		rt, err := router.New(router.Config{
			Policy:              pol,
			MaxBacklogSeconds:   cfg.MaxBacklogSeconds,
			ClassBacklogSeconds: cfg.ClassBacklogSeconds,
			Tracer:              s.rec,
		}, s.instances...)
		if err != nil {
			return nil, err
		}
		s.router = rt
		if acfg != nil {
			ctl, err := autoscale.New(*acfg, s.clock, rt, factory)
			if err != nil {
				return nil, err
			}
			s.ctl = ctl
			ctl.Start()
		}
		return s, nil
	}
	cl, err := cluster.New(s.instances...)
	if err != nil {
		return nil, err
	}
	s.cluster = cl
	return s, nil
}

// submit routes one request through the active frontend, counting
// admission-control sheds in routed mode. Any other routing failure is a
// programming error (e.g. a policy picking an out-of-range instance) and
// fails loudly rather than being miscounted as load shedding.
func (s *Simulation) submit(r *Request) {
	s.submitted++
	if s.sampler != nil {
		// Re-arm the gauge sampler if it wound down after a previous Run
		// drained the event queue (same discipline as the autoscaler).
		s.sampler.Start()
	}
	s.ts.Arrival(s.clock.Now(), r.Class)
	s.ts.Start()
	if s.router != nil {
		if s.ctl != nil {
			// Revive the controller's tick loop if it wound down after a
			// previous Run drained the event queue.
			s.ctl.Start()
		}
		if err := s.router.Submit(r); err != nil {
			var rej *router.RejectError
			if !errors.As(err, &rej) {
				panic(fmt.Sprintf("prefillonly: routing request %d: %v", r.ID, err))
			}
			s.rejected++
			if int(rej.Class) < len(s.rejectedByClass) {
				s.rejectedByClass[rej.Class]++
			}
			s.ts.Reject(s.clock.Now(), rej.Class, rej.Reason)
		}
		return
	}
	s.cluster.Submit(r)
}

// Now returns the current simulated time in seconds.
func (s *Simulation) Now() float64 { return s.clock.Now() }

// SubmitAt schedules a request's arrival at absolute simulated time t.
func (s *Simulation) SubmitAt(t float64, r *Request) {
	r.ArrivalTime = t
	s.clock.At(t, func() { s.submit(r) })
}

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
	for _, a := range arrivals {
		a := a
		s.clock.At(a.Time, func() { s.submit(a.Req) })
	}
	return nil
}

// Run drains the event queue (serving every submitted request) and returns
// the completion records in finish order. A drained run must account for
// every submission as completed or rejected; anything else is a lost
// request, a programming error that fails loudly.
func (s *Simulation) Run() []Record {
	s.clock.Run()
	if len(s.records)+s.rejected != s.submitted {
		panic(fmt.Sprintf("prefillonly: %d completed + %d rejected != %d submitted",
			len(s.records), s.rejected, s.submitted))
	}
	return s.records
}

// Records returns the completions so far.
func (s *Simulation) Records() []Record { return s.records }

// Rejected returns the requests shed by admission control so far (always 0
// without a RoutingPolicy and MaxBacklogSeconds).
func (s *Simulation) Rejected() int { return s.rejected }

// RejectedClass returns the requests of one SLO class shed so far.
func (s *Simulation) RejectedClass(c Class) int {
	if int(c) >= len(s.rejectedByClass) {
		return 0
	}
	return s.rejectedByClass[c]
}

// sampleGauges is the trace sampler's tick: per-instance load gauges (in
// routed mode, where the router prices backlog), cache residency per
// engine, and the pool size.
func (s *Simulation) sampleGauges(now float64) {
	if s.router != nil {
		for _, info := range s.router.InstanceInfos() {
			s.rec.LoadGauge(now, info.ID, info.Load.QueuedRequests, info.Load.BacklogSeconds)
		}
		pending := 0
		if s.ctl != nil {
			pending = s.ctl.Size() - s.router.Routable()
		}
		s.rec.PoolGauge(now, s.router.Routable(), pending)
	} else {
		s.rec.PoolGauge(now, len(s.instances), 0)
	}
	s.rec.SampleCaches(now)
}

// timeseriesGauges samples fleet state for the time-series collector at
// window close: fleet-wide queue depth and backlog (routed mode), pool
// size and pending cold starts, cumulative cache hit ratio, and
// GPU-seconds (the controller's accrued integral, or fleet size × time
// for a fixed fleet).
func (s *Simulation) timeseriesGauges(now float64) timeseries.Gauges {
	var g timeseries.Gauges
	if s.router != nil {
		for _, info := range s.router.InstanceInfos() {
			g.QueuedRequests += info.Load.QueuedRequests
			g.BacklogSeconds += info.Load.BacklogSeconds
		}
		g.PoolSize = s.router.Routable()
		if s.ctl != nil {
			g.PendingInstances = s.ctl.Size() - s.router.Routable()
		}
	} else {
		g.PoolSize = len(s.instances)
	}
	if s.ctl != nil {
		g.GPUSeconds = s.ctl.GPUSeconds(now)
	} else {
		g.GPUSeconds = now * float64(s.cfg.GPUs)
	}
	g.CacheHitRatio = s.CacheHitRate()
	return g
}

// Timeseries returns the windowed collector (nil unless
// TimeseriesSeconds was set).
func (s *Simulation) Timeseries() *timeseries.Collector { return s.ts }

// Trace returns the flight recorder (nil unless TraceSpans was set). Its
// WriteTrace exports the run as Chrome trace-event JSON for Perfetto.
func (s *Simulation) Trace() *trace.Recorder { return s.rec }

// Router returns the routing frontend (nil when the legacy §7.1 cluster is
// active).
func (s *Simulation) Router() *router.Router { return s.router }

// Autoscaler returns the elastic pool controller (nil without an
// Autoscale config).
func (s *Simulation) Autoscaler() *autoscale.Controller { return s.ctl }

// CacheHitRate aggregates prefix-cache hit rate across instances.
func (s *Simulation) CacheHitRate() float64 {
	var lookup, hit int64
	for _, in := range s.instances {
		if c := in.Cache(); c != nil {
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
