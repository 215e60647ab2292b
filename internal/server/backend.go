// Package server is PrefillOnly's online serving frontend: an
// OpenAI-compatible HTTP API (§3.1) over a real-time bridge to the
// simulated engine. Requests are tokenized, scheduled by the engine's
// calibrated SRJF policy against the live prefix cache, and answered with
// a constrained single-token completion and its probability scores
// (§2.3's allowed-token mechanism).
package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/timeseries"
	"repro/internal/tokenizer"
	"repro/internal/trace"
)

// Result is the outcome of one served request.
type Result struct {
	// Token is the sampled output token (the argmax of Scores).
	Token string
	// Scores maps each allowed token to its probability; they sum to 1.
	Scores map[string]float64
	// SimLatency is the request's latency in simulated seconds
	// (queueing + execution on the modelled GPU).
	SimLatency float64
	// CachedTokens is the prefix-cache hit length.
	CachedTokens int
	// PromptTokens is the prompt's length in tokens, BOS included.
	PromptTokens int
	// Err is set when the request died after admission: its instance was
	// killed by a fault and re-admission shed it (a *router.RejectError
	// with reason "orphan-retries" or an admission reason). Submit
	// returns it as the call's error.
	Err error
}

// Backend bridges wall-clock callers to the event-driven engine. Simulated
// time advances at Speedup × wall time, so a request whose modelled
// latency is 2 s returns after 2/Speedup wall seconds.
type Backend struct {
	Tokenizer *tokenizer.Tokenizer
	// Speedup is the simulated-seconds-per-wall-second factor
	// (default 1000: modelled GPU latencies shrink to milliseconds).
	Speedup float64

	mu      sync.Mutex
	sim     *sim.Sim
	engines []*core.Engine
	rt      *router.Router        // nil in single-engine mode
	ctl     *autoscale.Controller // nil without autoscaling
	rec     *trace.Recorder       // nil unless tracing enabled
	ts      *timeseries.Collector // nil unless EnableTimeseries was called
	inj     *chaos.Injector       // nil unless EnableChaos armed faults
	started time.Time
	nextID  int64
	waiters map[int64]chan Result
	closed  bool
	wake    chan struct{}
	done    chan struct{}

	// latency accumulates per-class request latency histograms for the
	// /v1/metrics surface; observations happen in onComplete.
	latency [sched.NumClasses]*metrics.Histogram
	// loopTicks counts clock-loop iterations so gauge sampling for the
	// flight recorder runs every gaugeSampleTicks wall milliseconds
	// instead of every tick.
	loopTicks int
}

// gaugeSampleTicks is how many ~1 ms clock-loop iterations pass between
// flight-recorder gauge samples (the served path samples on the wall
// clock; batch runs sample on sim ticks via trace.Sampler instead).
const gaugeSampleTicks = 100

// newBackendBase builds the engine-independent backend shell.
func newBackendBase(speedup float64) *Backend {
	if speedup <= 0 {
		speedup = 1000
	}
	b := &Backend{
		Tokenizer: tokenizer.New(),
		Speedup:   speedup,
		sim:       &sim.Sim{},
		started:   time.Now(),
		waiters:   make(map[int64]chan Result),
		wake:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	for i := range b.latency {
		b.latency[i] = metrics.NewHistogram(metrics.DefLatencyBuckets)
	}
	return b
}

// NewBackend builds a backend around a PrefillOnly engine created with the
// given engine config and options. cfg.Sim and cfg.OnComplete must be
// unset; the backend owns them.
func NewBackend(cfg engine.Config, opts core.Options, speedup float64) (*Backend, error) {
	if cfg.Sim != nil || cfg.OnComplete != nil {
		return nil, fmt.Errorf("server: Sim and OnComplete are owned by the backend")
	}
	b := newBackendBase(speedup)
	cfg.Sim = b.sim
	cfg.OnComplete = b.onComplete
	b.rec = cfg.Tracer
	eng, err := core.New(cfg, opts)
	if err != nil {
		return nil, err
	}
	b.engines = []*core.Engine{eng}
	go b.loop()
	return b, nil
}

// NewRoutedBackend builds a backend over a routed cluster of `instances`
// identical PrefillOnly engines: requests route by live load and
// prefix-cache affinity through internal/router instead of binding to a
// single engine, and rcfg's admission bound sheds a request with a
// *router.RejectError when the instance the policy picked for it is
// backlogged past the bound (load-aware policies only pick a backlogged
// instance when every alternative is worse). cfg.Sim and cfg.OnComplete
// must be unset; the backend owns them.
func NewRoutedBackend(cfg engine.Config, opts core.Options, speedup float64, instances int, rcfg router.Config) (*Backend, error) {
	return newRouted(cfg, opts, speedup, instances, rcfg, nil)
}

// NewAutoscaledBackend is NewRoutedBackend with an elastic instance pool:
// the cluster starts at acfg.MinInstances engines and an
// autoscale.Controller grows and shrinks it between the configured floor
// and ceiling from the router's live load. acfg.Model, GPU and KeepAlive
// are owned by the backend (derived from cfg; the controller must tick as
// long as the server is up). An unset TickSeconds defaults to one control
// decision per wall millisecond: the tick is a simulated-seconds
// interval, so at high speedups a sim-time default would flood the event
// loop with control ticks between completions.
func NewAutoscaledBackend(cfg engine.Config, opts core.Options, speedup float64, rcfg router.Config, acfg autoscale.Config) (*Backend, error) {
	if acfg.MinInstances <= 0 {
		acfg.MinInstances = 1
	}
	if acfg.TickSeconds <= 0 {
		if speedup <= 0 {
			speedup = 1000
		}
		acfg.TickSeconds = max(1, speedup/1000)
	}
	return newRouted(cfg, opts, speedup, acfg.MinInstances, rcfg, &acfg)
}

func newRouted(cfg engine.Config, opts core.Options, speedup float64, instances int, rcfg router.Config, acfg *autoscale.Config) (*Backend, error) {
	if cfg.Sim != nil || cfg.OnComplete != nil {
		return nil, fmt.Errorf("server: Sim and OnComplete are owned by the backend")
	}
	if instances <= 0 {
		return nil, fmt.Errorf("server: need at least one instance, got %d", instances)
	}
	b := newBackendBase(speedup)
	cfg.Sim = b.sim
	cfg.OnComplete = b.onComplete
	// One recorder serves every tier: engine lifecycle spans, router
	// decisions and autoscale pool events share the timeline.
	b.rec = cfg.Tracer
	if rcfg.Tracer == nil {
		rcfg.Tracer = cfg.Tracer
	}
	factory := func() (engine.Engine, error) {
		eng, err := core.New(cfg, opts)
		if err != nil {
			return nil, err
		}
		b.engines = append(b.engines, eng)
		return eng, nil
	}
	engines := make([]engine.Engine, instances)
	for i := range engines {
		eng, err := factory()
		if err != nil {
			return nil, err
		}
		engines[i] = eng
	}
	rt, err := router.New(rcfg, engines...)
	if err != nil {
		return nil, err
	}
	b.rt = rt
	if acfg != nil {
		acfg.Model = cfg.Model
		acfg.GPU = cfg.GPU
		acfg.KeepAlive = true
		if acfg.Tracer == nil {
			acfg.Tracer = cfg.Tracer
		}
		ctl, err := autoscale.New(*acfg, b.sim, rt, factory)
		if err != nil {
			return nil, err
		}
		b.ctl = ctl
		ctl.Start()
	}
	go b.loop()
	return b, nil
}

// Engine exposes the first PrefillOnly engine (read-only use; the only
// engine in single-engine mode).
func (b *Backend) Engine() *core.Engine {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.engines[0]
}

// Engines exposes every instance ever created (read-only use; an
// autoscaled backend's released instances stay listed, so cumulative
// cache statistics survive scale-down).
func (b *Backend) Engines() []*core.Engine {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]*core.Engine(nil), b.engines...)
}

// Router exposes the routing frontend (nil in single-engine mode).
func (b *Backend) Router() *router.Router { return b.rt }

// Autoscaler exposes the pool controller (nil unless autoscaled).
func (b *Backend) Autoscaler() *autoscale.Controller { return b.ctl }

// InstanceStats is one instance's identity and live load in a
// StatsSnapshot.
type InstanceStats struct {
	ID             int     `json:"id"`
	Draining       bool    `json:"draining"`
	GPUs           int     `json:"gpus"`
	QueuedRequests int     `json:"queued_requests"`
	QueuedTokens   int64   `json:"queued_tokens"`
	BacklogSeconds float64 `json:"backlog_seconds"`
	// ClassBacklogSeconds splits BacklogSeconds by SLO class label.
	ClassBacklogSeconds map[string]float64 `json:"class_backlog_seconds,omitempty"`
	RoutedRequests      int64              `json:"routed_requests"`
	RoutedTokens        int64              `json:"routed_tokens"`
}

// AutoscaleStats reports the pool controller's state in a StatsSnapshot.
type AutoscaleStats struct {
	PoolSize         int     `json:"pool_size"`
	ScaleUps         int     `json:"scale_ups"`
	ScaleDowns       int     `json:"scale_downs"`
	Revives          int     `json:"revives"`
	PeakInstances    int     `json:"peak_instances"`
	TroughInstances  int     `json:"trough_instances"`
	ColdStartSeconds float64 `json:"cold_start_seconds"`
	GPUSeconds       float64 `json:"gpu_seconds"`
}

// StatsSnapshot is the /v1/stats payload: the router's live per-instance
// loads, the admission tally, and the autoscaler's pool state.
type StatsSnapshot struct {
	SimSeconds float64         `json:"sim_seconds"`
	Instances  []InstanceStats `json:"instances"`
	Routable   int             `json:"routable"`
	// Admission maps policy name to its accept/reject counts (empty in
	// single-engine mode, which has no admission control).
	Admission map[string]AdmissionStats `json:"admission"`
	// AdmissionByClass stratifies Admission by SLO class label:
	// policy → class → counts.
	AdmissionByClass map[string]map[string]AdmissionStats `json:"admission_by_class,omitempty"`
	// RejectReasons stratifies rejects by which budget they tripped:
	// policy → class → reason ("backlog" | "class-budget") → count.
	RejectReasons map[string]map[string]map[string]int64 `json:"admission_reject_reasons,omitempty"`
	Autoscale     *AutoscaleStats                        `json:"autoscale,omitempty"`
	// Faults reports the chaos injector's activity (omitted unless
	// EnableChaos armed one).
	Faults *FaultStats `json:"faults,omitempty"`
}

// FaultStats reports the chaos injector's cumulative activity in a
// StatsSnapshot.
type FaultStats struct {
	// ByKind counts fault events per kind label ("crash", "straggler",
	// "preempt-notice", "preempt-kill").
	ByKind map[string]uint64 `json:"by_kind"`
	// Orphaned requests split into Rerouted (re-admitted) + Shed.
	Orphaned uint64 `json:"orphaned"`
	Rerouted uint64 `json:"rerouted"`
	Shed     uint64 `json:"shed"`
	// Recoveries counts kill faults after which the routable pool
	// returned to its pre-fault size; Unrecovered the ones whose
	// tracking timed out.
	Recoveries          uint64  `json:"recoveries"`
	Unrecovered         uint64  `json:"unrecovered"`
	MeanRecoverySeconds float64 `json:"mean_recovery_seconds"`
	MaxRecoverySeconds  float64 `json:"max_recovery_seconds"`
}

// AdmissionStats is one policy's accept/reject tally in a StatsSnapshot.
type AdmissionStats struct {
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
}

// Stats gathers a consistent snapshot of the serving cluster's state.
func (b *Backend) Stats() StatsSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.sim.Now()
	snap := StatsSnapshot{
		SimSeconds: now,
		Admission:  map[string]AdmissionStats{},
	}
	if b.rt == nil {
		// Single-engine mode: synthesize one instance row. In-flight
		// requests are the backend's unanswered waiters (queued or
		// executing); token and backlog accounting only exists in routed
		// mode, where the router prices submissions.
		snap.Routable = 1
		snap.Instances = []InstanceStats{{
			GPUs:           b.engines[0].GPUs(),
			QueuedRequests: len(b.waiters),
		}}
		return snap
	}
	for _, info := range b.rt.InstanceInfos() {
		classBacklog := make(map[string]float64, sched.NumClasses)
		for _, class := range sched.Classes() {
			if s := info.Load.ClassBacklog(class); s > 0 {
				classBacklog[class.String()] = s
			}
		}
		snap.Instances = append(snap.Instances, InstanceStats{
			ID:                  info.ID,
			Draining:            info.Draining,
			GPUs:                info.GPUs,
			QueuedRequests:      info.Load.QueuedRequests,
			QueuedTokens:        info.Load.QueuedTokens,
			BacklogSeconds:      info.Load.BacklogSeconds,
			ClassBacklogSeconds: classBacklog,
			RoutedRequests:      info.Load.RoutedRequests,
			RoutedTokens:        info.Load.RoutedTokens,
		})
	}
	snap.Routable = b.rt.Routable()
	// One ClassSnapshot serves both views: summing it here keeps the
	// aggregate consistent with the per-class breakdown (two separate
	// snapshot calls could interleave with a concurrent submit).
	for pol, byClass := range b.rt.Admission().ClassSnapshot() {
		m := make(map[string]AdmissionStats, len(byClass))
		var agg AdmissionStats
		for class, c := range byClass {
			m[class] = AdmissionStats{Accepted: c.Accepted, Rejected: c.Rejected}
			agg.Accepted += c.Accepted
			agg.Rejected += c.Rejected
		}
		snap.Admission[pol] = agg
		if snap.AdmissionByClass == nil {
			snap.AdmissionByClass = make(map[string]map[string]AdmissionStats)
		}
		snap.AdmissionByClass[pol] = m
	}
	if reasons := b.rt.Admission().ReasonSnapshot(); len(reasons) > 0 {
		snap.RejectReasons = reasons
	}
	if b.ctl != nil {
		st := b.ctl.Stats()
		snap.Autoscale = &AutoscaleStats{
			PoolSize:         b.ctl.Size(),
			ScaleUps:         st.ScaleUps,
			ScaleDowns:       st.ScaleDowns,
			Revives:          st.Revives,
			PeakInstances:    st.PeakInstances,
			TroughInstances:  st.MinInstances,
			ColdStartSeconds: st.ColdStartSeconds,
			GPUSeconds:       b.ctl.GPUSeconds(now),
		}
	}
	if b.inj.Enabled() {
		st := b.inj.Stats()
		byKind := make(map[string]uint64, 4)
		for _, label := range chaos.Labels() {
			byKind[label] = st.ByLabel(label)
		}
		snap.Faults = &FaultStats{
			ByKind:              byKind,
			Orphaned:            st.Orphaned,
			Rerouted:            st.Rerouted,
			Shed:                st.Shed,
			Recoveries:          st.Recoveries,
			Unrecovered:         st.Unrecovered,
			MeanRecoverySeconds: st.MeanRecoverySeconds(),
			MaxRecoverySeconds:  st.MaxRecoverySeconds,
		}
	}
	return snap
}

// simNow maps wall time to simulated seconds.
func (b *Backend) simNow() float64 {
	return time.Since(b.started).Seconds() * b.Speedup
}

// onComplete runs inside sim event handlers (loop holds the lock).
func (b *Backend) onComplete(rec engine.Record) {
	if b.rt != nil {
		b.rt.Completed(rec)
	}
	if c := int(rec.Req.Class); c < len(b.latency) {
		b.latency[c].Observe(rec.Latency())
	}
	b.ts.Complete(rec.Finish, rec.Req.Class, rec.Latency())
	ch, ok := b.waiters[rec.Req.ID]
	if !ok {
		return
	}
	delete(b.waiters, rec.Req.ID)
	// The waiter scores the prompt itself, outside the lock.
	ch <- Result{SimLatency: rec.Latency(), CachedTokens: rec.CachedTokens}
}

// loop advances simulated time in lockstep with the wall clock.
func (b *Backend) loop() {
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-b.done:
			return
		case <-ticker.C:
		case <-b.wake:
		}
		b.mu.Lock()
		b.sim.RunUntil(b.simNow())
		if b.rec != nil {
			if b.loopTicks++; b.loopTicks >= gaugeSampleTicks {
				b.loopTicks = 0
				b.sampleGauges()
			}
		}
		b.mu.Unlock()
	}
}

// sampleGauges emits the fleet gauges (per-instance load, cache
// residency, pool size) into the flight recorder. Caller holds b.mu.
func (b *Backend) sampleGauges() {
	now := b.sim.Now()
	if b.rt != nil {
		for _, info := range b.rt.InstanceInfos() {
			b.rec.LoadGauge(now, info.ID, info.Load.QueuedRequests, info.Load.BacklogSeconds)
		}
		pending := 0
		if b.ctl != nil {
			pending = b.ctl.Size() - b.rt.Routable()
		}
		b.rec.PoolGauge(now, b.rt.Routable(), pending)
	} else {
		b.rec.LoadGauge(now, 0, len(b.waiters), 0)
		b.rec.PoolGauge(now, 1, 0)
	}
	b.rec.SampleCaches(now)
}

// EnableTimeseries attaches a windowed time-series collector with the
// given window width in simulated seconds (<= 0 takes the collector's
// default). Unlike batch simulations, the server schedules no boundary
// ticker: its clock free-runs at Speedup sim-seconds per wall second
// even when idle, so boundary events would dominate the kernel. Windows
// close lazily instead — on request events and on /v1/timeseries
// scrapes — which the collector's bounded idle-gap catch-up keeps O(1)
// per close. Call it once, before serving traffic.
func (b *Backend) EnableTimeseries(intervalSeconds float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ts != nil {
		return
	}
	b.ts = timeseries.New(timeseries.Config{
		IntervalSeconds: intervalSeconds,
		Sample:          b.timeseriesGauges,
	})
}

// EnableChaos arms a deterministic fault injector over the routed
// cluster: seeded crash / straggler / spot-preemption events on the sim
// clock, with orphan re-admission and autoscaled replacement (see
// internal/chaos). Routed mode only — faults act through the router's
// membership. Call it once, before serving traffic and after
// EnableTimeseries (the injector captures the collector, so the order
// decides whether fault counts land in the windows). A cfg that enables
// no fault kind is a no-op: the backend keeps the nil (disabled)
// injector and stays bit-identical to an unwired server.
func (b *Backend) EnableChaos(cfg chaos.Config) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rt == nil {
		return fmt.Errorf("server: chaos requires routed mode (more than one instance)")
	}
	if b.inj != nil {
		return fmt.Errorf("server: chaos already enabled")
	}
	b.inj = chaos.New(cfg, b.sim, b.rt, chaos.Options{
		Controller: b.ctl,
		Tracer:     b.rec,
		Timeseries: b.ts,
		OnShed:     b.onOrphanShed,
	})
	b.inj.Start()
	return nil
}

// Chaos exposes the fault injector (nil unless EnableChaos armed one).
func (b *Backend) Chaos() *chaos.Injector { return b.inj }

// onOrphanShed runs inside sim event handlers (loop holds the lock): a
// fault orphaned this request and re-admission shed it, so answer its
// waiter with the typed reject instead of leaving the caller blocked.
func (b *Backend) onOrphanShed(r *sched.Request, rej *router.RejectError) {
	b.ts.Reject(b.sim.Now(), rej.Class, rej.Reason)
	ch, ok := b.waiters[r.ID]
	if !ok {
		return
	}
	delete(b.waiters, r.ID)
	ch <- Result{Err: fmt.Errorf("server: %w", rej)}
}

// timeseriesGauges samples fleet state for the collector. It runs with
// b.mu held: either from a collector tick inside the clock loop's
// RunUntil, or from a snapshot under Timeseries.
func (b *Backend) timeseriesGauges(now float64) timeseries.Gauges {
	var g timeseries.Gauges
	if b.rt != nil {
		for _, info := range b.rt.InstanceInfos() {
			g.QueuedRequests += info.Load.QueuedRequests
			g.BacklogSeconds += info.Load.BacklogSeconds
		}
		g.PoolSize = b.rt.Routable()
		if b.ctl != nil {
			g.PendingInstances = b.ctl.Size() - b.rt.Routable()
		}
	} else {
		g.QueuedRequests = len(b.waiters)
		g.PoolSize = 1
	}
	g.GPUSeconds = b.gpuSeconds(now)
	var lookup, hit int64
	for _, eng := range b.engines {
		if c := eng.Cache(); c != nil {
			st := c.Stats()
			lookup += st.LookupTokens
			hit += st.HitTokens
		}
	}
	if lookup > 0 {
		g.CacheHitRatio = float64(hit) / float64(lookup)
	}
	return g
}

// gpuSeconds is the fleet's cumulative GPU-seconds at sim time now: the
// controller's accrued integral when autoscaled, else fleet size × time.
// Caller holds b.mu.
func (b *Backend) gpuSeconds(now float64) float64 {
	if b.ctl != nil {
		return b.ctl.GPUSeconds(now)
	}
	gpus := 0
	for _, eng := range b.engines {
		gpus += eng.GPUs()
	}
	return now * float64(gpus)
}

// Timeseries renders the collector's series as of the current simulated
// time (zero Export when EnableTimeseries was never called). It takes
// the backend lock, so the snapshot's gauges are consistent with the
// rows.
func (b *Backend) Timeseries() (timeseries.Export, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ts == nil {
		return timeseries.Export{}, false
	}
	// Close windows the free-running clock has passed (the server has no
	// boundary ticker), then snapshot: scrapes see every elapsed window
	// plus a partial row for the open one.
	now := b.sim.Now()
	b.ts.Advance(now)
	return b.ts.Snapshot(now), true
}

// Trace exposes the backend's flight recorder (nil unless tracing is
// enabled via the engine Config's Tracer).
func (b *Backend) Trace() *trace.Recorder { return b.rec }

// Close stops the backend's clock loop. In-flight Submit calls are
// answered with an error result.
func (b *Backend) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	close(b.done)
}

// ErrEmptyPrompt is returned for a prompt that encodes to no tokens
// besides BOS (empty, or only whitespace).
var ErrEmptyPrompt = errors.New("server: prompt has no tokens")

// Submit serves one prompt with an allowed-token constraint, blocking
// until the engine completes it (in scaled wall time). The request is
// interactive-class; batch tenants go through SubmitClass.
func (b *Backend) Submit(prompt string, allowed []string, userID int) (Result, error) {
	return b.SubmitClass(prompt, allowed, userID, sched.ClassInteractive)
}

// SubmitClass is Submit with an explicit SLO class: the class selects the
// request's admission budget, scheduling weight and autoscale treatment
// in routed mode.
func (b *Backend) SubmitClass(prompt string, allowed []string, userID int, class sched.Class) (Result, error) {
	if len(allowed) == 0 {
		allowed = []string{"Yes", "No"}
	}
	toks := b.Tokenizer.Encode(prompt)
	// A prompt of only whitespace encodes to the special tokens alone,
	// which is what the empty string encodes to.
	if len(toks) == b.Tokenizer.Count("") {
		return Result{}, ErrEmptyPrompt
	}
	ch := make(chan Result, 1)

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return Result{}, fmt.Errorf("server: backend closed")
	}
	b.nextID++
	id := b.nextID
	now := b.simNow()
	b.sim.RunUntil(now)
	r := sched.NewRequest(sched.Request{
		ID:            id,
		UserID:        userID,
		Tokens:        toks,
		ArrivalTime:   b.sim.Now(),
		AllowedTokens: allowed,
		Class:         class,
	})
	b.ts.Arrival(b.sim.Now(), class)
	b.waiters[id] = ch
	if b.rt != nil {
		if err := b.rt.Submit(r); err != nil {
			delete(b.waiters, id)
			var rej *router.RejectError
			if errors.As(err, &rej) {
				b.ts.Reject(b.sim.Now(), rej.Class, rej.Reason)
			}
			b.mu.Unlock()
			return Result{}, fmt.Errorf("server: %w", err)
		}
		// Revive parked fault streams: with no horizon they follow the
		// sampler discipline and park when the event queue drains.
		b.inj.Start()
	} else {
		b.engines[0].Submit(r)
	}
	b.mu.Unlock()

	select {
	case b.wake <- struct{}{}:
	default:
	}
	select {
	case res := <-ch:
		if res.Err != nil {
			return Result{}, res.Err
		}
		res.Scores = Score(toks, allowed)
		res.Token, res.PromptTokens = argmax(res.Scores), len(toks)
		return res, nil
	case <-b.done:
		return Result{}, fmt.Errorf("server: backend closed")
	}
}
