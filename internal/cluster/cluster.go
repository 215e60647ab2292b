// Package cluster is the fleet: the one place a serving cluster is
// assembled and driven. From a Spec it builds the sim, every engine
// instance (through one factory), the optional router and autoscaler,
// and one completion chain; EnableChaos adds a fault injector. It offers
// one Submit path, closure-free arrival injection, one gauge snapshot
// for every telemetry surface, and an accounting check at the end of
// every run. Simulations, the experiment sweeps and the HTTP server are
// thin callers.
//
// Without a router config the fleet keeps the paper's static frontend
// (§7.1): every request from one user goes to the same instance, and
// users are assigned to instances in round-robin order of first
// appearance, so per-user prefix caches stay local to one device.
package cluster

import (
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ringbuf"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/timeseries"
	"repro/internal/trace"
	"repro/internal/workload"
)

// EngineKind enumerates the five systems the paper compares.
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

// Parallel reports whether one instance spans a GPU pair.
func (k EngineKind) Parallel() bool {
	return k == PipelineParallel || k == TensorParallel
}

// Instances returns how many instances of the engine fill gpus devices.
// A pair-spanning engine needs an even count.
func (k EngineKind) Instances(gpus int) (int, error) {
	if gpus <= 0 {
		return 0, fmt.Errorf("cluster: GPUs must be positive, got %d", gpus)
	}
	if k.Parallel() {
		if gpus%2 != 0 {
			return 0, fmt.Errorf("cluster: %v needs an even GPU count, got %d", k, gpus)
		}
		return gpus / 2, nil
	}
	return gpus, nil
}

// Spec describes a fleet.
type Spec struct {
	// Kind is the instance type.
	Kind EngineKind
	// Config configures every instance; the fleet owns its Sim and
	// OnComplete. Its Tracer receives every tier's spans.
	Config engine.Config
	// Options tunes PrefillOnly instances (λ, class weights); the
	// baselines ignore it.
	Options core.Options
	// Instances is the initial instance count.
	Instances int
	// Router routes by live load and prefix affinity when set; nil keeps
	// the first-appearance round-robin frontend. An unset Tracer takes
	// the fleet's.
	Router *router.Config
	// Autoscale makes the pool elastic (requires Router). Unset Model,
	// GPU and Tracer take the fleet's.
	Autoscale *autoscale.Config
	// TraceSampleSeconds > 0 samples the fleet's gauges into the tracer
	// on sim ticks of that interval.
	TraceSampleSeconds float64
	// Timeseries, when set, collects the fleet's windowed series with a
	// window ticker on the fleet's sim.
	Timeseries *timeseries.Collector
	// OnComplete receives each completion record instead of Records
	// retaining it (a long-running server must not grow with history).
	OnComplete func(engine.Record)
	// OnShed receives each fault-orphaned request shed during recovery.
	OnShed func(*sched.Request, *router.RejectError)
}

// Fleet is an assembled serving cluster on its own sim.
type Fleet struct {
	spec    Spec
	sim     *sim.Sim
	ecfg    engine.Config
	engines []engine.Engine // every instance ever built
	gpus    int             // GPUs of the initial instances
	users   firstAppearance // frontend without a router
	rt      *router.Router
	ctl     *autoscale.Controller
	inj     *chaos.Injector
	sampler *trace.Sampler
	ts      *timeseries.Collector
	arrive  sim.Func // the one arrival callback: f.arrival

	records                                    []engine.Record
	submitted, completed, rejected, orphanShed int
	rejectedByClass                            [sched.NumClasses]int
	err                                        error // first non-admission error of an arrival
}

// New assembles a fleet: it builds the initial instances (each runs its
// profile run), then the router and autoscaler the spec asks for.
func New(spec Spec) (*Fleet, error) {
	if spec.Instances <= 0 {
		return nil, fmt.Errorf("cluster: need at least one instance, got %d", spec.Instances)
	}
	if spec.Router == nil && spec.Autoscale != nil {
		return nil, fmt.Errorf("cluster: autoscaling requires a router")
	}
	if spec.Config.Sim != nil || spec.Config.OnComplete != nil {
		return nil, fmt.Errorf("cluster: Sim and OnComplete are owned by the fleet")
	}
	f := &Fleet{spec: spec, sim: &sim.Sim{}}
	f.arrive = f.arrival
	f.ecfg = spec.Config
	f.ecfg.Sim, f.ecfg.OnComplete = f.sim, f.complete
	tracer := spec.Config.Tracer
	if tracer != nil && spec.TraceSampleSeconds > 0 {
		f.sampler = trace.NewSampler(f.sim, spec.TraceSampleSeconds, f.TraceGauges)
	}
	if spec.Timeseries != nil {
		f.SetTimeseries(spec.Timeseries)
		spec.Timeseries.Attach(f.sim)
	}
	for i := 0; i < spec.Instances; i++ {
		e, err := f.build()
		if err != nil {
			return nil, err
		}
		f.gpus += e.GPUs()
	}
	if spec.Router == nil {
		f.users = firstAppearance{instances: spec.Instances, maxUsers: DefaultMaxTrackedUsers}
		return f, nil
	}
	rcfg := *spec.Router
	if rcfg.Tracer == nil {
		rcfg.Tracer = tracer
	}
	rt, err := router.New(rcfg, f.engines...)
	if err != nil {
		return nil, err
	}
	f.rt = rt
	if spec.Autoscale != nil {
		acfg := *spec.Autoscale
		if acfg.Model == nil {
			acfg.Model = spec.Config.Model
		}
		if acfg.GPU == nil {
			acfg.GPU = spec.Config.GPU
		}
		if acfg.Tracer == nil {
			acfg.Tracer = tracer
		}
		ctl, err := autoscale.New(acfg, f.sim, rt, f.build)
		if err != nil {
			return nil, err
		}
		f.ctl = ctl
		ctl.Start()
	}
	return f, nil
}

// build is the fleet's one engine factory: initial instances, scale-ups
// and crash replacements all come from here.
func (f *Fleet) build() (engine.Engine, error) {
	var e engine.Engine
	var err error
	switch f.spec.Kind {
	case PrefillOnly:
		e, err = core.New(f.ecfg, f.spec.Options)
	case PagedAttention:
		e, err = engine.NewPagedAttention(f.ecfg)
	case ChunkedPrefill:
		e, err = engine.NewChunkedPrefill(f.ecfg, 0)
	case PipelineParallel:
		e, err = engine.NewPipelineParallel(f.ecfg)
	case TensorParallel:
		e, err = engine.NewTensorParallel(f.ecfg)
	default:
		err = fmt.Errorf("cluster: unknown engine kind %v", f.spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	f.engines = append(f.engines, e)
	return e, nil
}

// EnableChaos arms and starts a fault injector on a routed fleet. It
// captures the collector installed so far; a batch run calls it after
// scheduling its arrivals, so a horizon-bound stream starts from t=0.
func (f *Fleet) EnableChaos(cfg chaos.Config) error {
	if f.rt == nil {
		return fmt.Errorf("cluster: chaos requires a router")
	}
	if f.inj != nil {
		return fmt.Errorf("cluster: chaos already enabled")
	}
	f.inj = chaos.New(cfg, f.sim, f.rt, chaos.Options{
		Controller: f.ctl,
		Tracer:     f.ecfg.Tracer,
		Timeseries: f.ts,
		OnShed:     f.shed,
	})
	f.inj.Start()
	return nil
}

// SetTimeseries feeds the fleet's arrivals, completions, rejects and
// gauges into ts. Spec.Timeseries also attaches a window ticker; a
// wall-clock server calls this alone and closes windows lazily.
func (f *Fleet) SetTimeseries(ts *timeseries.Collector) {
	f.ts = ts
	ts.SetSample(f.seriesGauges)
}

// complete is the one completion chain: router release, records,
// time series, hook.
func (f *Fleet) complete(rec engine.Record) {
	if f.rt != nil {
		f.rt.Completed(rec)
	}
	f.completed++
	if f.spec.OnComplete == nil {
		f.records = append(f.records, rec)
	}
	f.ts.Complete(rec.Finish, rec.Req.Class, rec.Latency())
	if f.spec.OnComplete != nil {
		f.spec.OnComplete(rec)
	}
}

// shed accounts a fault-orphaned request dropped during recovery.
func (f *Fleet) shed(r *sched.Request, rej *router.RejectError) {
	f.orphanShed++
	f.ts.Reject(f.sim.Now(), rej.Class, rej.Reason)
	if f.spec.OnShed != nil {
		f.spec.OnShed(r, rej)
	}
}

// Submit offers one request at the current sim time. An admission shed
// is counted (per class) and returned as a *router.RejectError; any other
// router error is returned uncounted.
func (f *Fleet) Submit(r *sched.Request) error {
	f.submitted++
	// Re-arm the periodic loops that wind down when a run drains.
	f.sampler.Start()
	now := f.sim.Now()
	f.ts.Arrival(now, r.Class)
	f.ts.Start()
	if f.rt == nil {
		f.engines[f.users.route(r.UserID)].Submit(r)
		return nil
	}
	if f.ctl != nil {
		f.ctl.Start()
	}
	err := f.rt.Submit(r)
	if err == nil {
		f.inj.Start()
		return nil
	}
	rej, ok := err.(*router.RejectError)
	if !ok {
		f.submitted--
		return err
	}
	f.rejected++
	if int(rej.Class) < len(f.rejectedByClass) {
		f.rejectedByClass[rej.Class]++
	}
	f.ts.Reject(now, rej.Class, rej.Reason)
	return err
}

// arrival is the fleet's sim callback for a scheduled request.
func (f *Fleet) arrival(arg any) {
	if err := f.Submit(arg.(*sched.Request)); err != nil && f.err == nil {
		if _, shed := err.(*router.RejectError); !shed {
			f.err = err
		}
	}
}

// ArriveAt schedules r's arrival at sim time t.
func (f *Fleet) ArriveAt(t float64, r *sched.Request) {
	r.ArrivalTime = t
	f.sim.AtFunc(t, f.arrive, r)
}

// Arrive schedules every arrival.
func (f *Fleet) Arrive(arrivals []workload.Arrival) {
	for _, a := range arrivals {
		f.ArriveAt(a.Time, a.Req)
	}
}

// Run drains the sim and returns the end time. It fails on a routing
// error, a failed scale-up, or a request the fleet lost.
func (f *Fleet) Run() (end float64, err error) {
	end = f.sim.Run()
	if f.err != nil {
		return end, f.err
	}
	if f.ctl != nil {
		if err := f.ctl.Err(); err != nil {
			return end, err
		}
	}
	return end, f.CheckAccounting()
}

// CheckAccounting verifies that every submission completed, was shed at
// admission, or was shed after a fault orphaned it. It holds once the
// fleet is quiescent.
func (f *Fleet) CheckAccounting() error {
	if f.completed+f.rejected+f.orphanShed != f.submitted {
		return fmt.Errorf("cluster: %d completed + %d rejected + %d orphan-shed != %d submitted",
			f.completed, f.rejected, f.orphanShed, f.submitted)
	}
	return nil
}

// Gauges is one snapshot of fleet state, the single source of the trace
// gauges, the time-series gauges and the server's fleet figures.
type Gauges struct {
	timeseries.Gauges
	// Loads is each router instance's live load (nil without a router).
	Loads []router.InstanceInfo
}

// Gauges snapshots the fleet at sim time now. Queue depth counts
// admitted, unfinished requests: per instance from the router's loads,
// or the fleet-wide in-flight count without one (which prices no
// backlog). Reading it changes nothing.
func (f *Fleet) Gauges(now float64) Gauges {
	var g Gauges
	if f.rt != nil {
		g.Loads = f.rt.InstanceInfos()
		for _, info := range g.Loads {
			g.QueuedRequests += info.Load.QueuedRequests
			g.BacklogSeconds += info.Load.BacklogSeconds
		}
		g.PoolSize = f.rt.Routable()
		if f.ctl != nil {
			g.PendingInstances = f.ctl.Size() - g.PoolSize
		}
	} else {
		g.QueuedRequests = f.submitted - f.completed
		g.PoolSize = len(f.engines)
	}
	g.CacheHitRatio = f.CacheHitRate()
	g.GPUSeconds = f.GPUSeconds(now)
	return g
}

func (f *Fleet) seriesGauges(now float64) timeseries.Gauges { return f.Gauges(now).Gauges }

// TraceGauges samples Gauges into the flight recorder: per-instance
// loads, pool size and pending cold starts, and cache residency. Without
// a router only a single instance has a load track (the fleet's
// in-flight count); several unrouted instances have no per-instance
// split.
func (f *Fleet) TraceGauges(now float64) {
	rec := f.ecfg.Tracer
	g := f.Gauges(now)
	for _, info := range g.Loads {
		rec.LoadGauge(now, info.ID, info.Load.QueuedRequests, info.Load.BacklogSeconds)
	}
	if g.Loads == nil && len(f.engines) == 1 {
		rec.LoadGauge(now, 0, g.QueuedRequests, 0)
	}
	rec.PoolGauge(now, g.PoolSize, g.PendingInstances)
	rec.SampleCaches(now)
}

// CacheHitRate is hit tokens over looked-up tokens across every instance
// the fleet ever built.
func (f *Fleet) CacheHitRate() float64 {
	var lookup, hit int64
	for _, e := range f.engines {
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

// GPUSeconds is the GPU-seconds provisioned up to now: the controller's
// integral when elastic, the initial fleet's GPUs × now otherwise.
func (f *Fleet) GPUSeconds(now float64) float64 {
	if f.ctl != nil {
		return f.ctl.GPUSeconds(now)
	}
	return now * float64(f.gpus)
}

// Sim returns the fleet's event kernel.
func (f *Fleet) Sim() *sim.Sim { return f.sim }

// Engines returns every instance the fleet ever built, released ones
// included.
func (f *Fleet) Engines() []engine.Engine { return f.engines }

// Records returns the retained completion records in finish order.
func (f *Fleet) Records() []engine.Record { return f.records }

// Rejected returns the admission sheds so far.
func (f *Fleet) Rejected() int { return f.rejected }

// RejectedClass returns one class's admission sheds so far.
func (f *Fleet) RejectedClass(c sched.Class) int {
	if int(c) >= len(f.rejectedByClass) {
		return 0
	}
	return f.rejectedByClass[c]
}

// OrphanShed returns the fault-orphaned requests shed so far.
func (f *Fleet) OrphanShed() int { return f.orphanShed }

// Router returns the routing frontend (nil without a router config).
func (f *Fleet) Router() *router.Router { return f.rt }

// Controller returns the pool controller (nil unless elastic).
func (f *Fleet) Controller() *autoscale.Controller { return f.ctl }

// Injector returns the fault injector (nil unless chaos is armed).
func (f *Fleet) Injector() *chaos.Injector { return f.inj }

// DefaultMaxTrackedUsers bounds the first-appearance table so
// million-user traffic cannot grow it without limit. When the bound is
// hit, the longest-tracked user is forgotten (FIFO) and re-assigned
// round-robin on its next request, sacrificing that user's prefix
// locality.
const DefaultMaxTrackedUsers = 1 << 20

// firstAppearance assigns users to instances round-robin in order of
// first appearance and keeps each user on its instance.
type firstAppearance struct {
	instances int
	byUser    map[int]int
	// order holds tracked user IDs in assignment order (FIFO eviction).
	// A ring (internal/ringbuf) rather than a slice advanced with
	// `order = order[1:]`: under user churn at the cap, route appends
	// while evictOldest pops, and the slice advance regrows the backing
	// array on every append while pinning every evicted slot — memory
	// proportional to all users ever seen, not the cap.
	order    ringbuf.Ring[int]
	next     int
	maxUsers int
}

// route returns the instance index a user's requests go to. A single
// instance tracks no users.
func (c *firstAppearance) route(userID int) int {
	if c.instances == 1 {
		return 0
	}
	if idx, ok := c.byUser[userID]; ok {
		return idx
	}
	if c.byUser == nil {
		c.byUser = make(map[int]int)
	}
	if len(c.byUser) >= c.maxUsers {
		c.evictOldest()
	}
	idx := c.next
	c.next = (c.next + 1) % c.instances
	c.byUser[userID] = idx
	c.order.PushBack(userID)
	return idx
}

// setMaxTrackedUsers lowers or raises the table bound, evicting the
// oldest users beyond it.
func (c *firstAppearance) setMaxTrackedUsers(n int) error {
	if n <= 0 {
		return fmt.Errorf("cluster: max tracked users must be positive, got %d", n)
	}
	c.maxUsers = n
	for len(c.byUser) > c.maxUsers {
		c.evictOldest()
	}
	return nil
}

// evictOldest forgets the longest-tracked user.
func (c *firstAppearance) evictOldest() {
	if user, ok := c.order.PopFront(); ok {
		delete(c.byUser, user)
	}
}
