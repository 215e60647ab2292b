package engine

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/kvcache"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Serial is a single-device engine that executes one request at a time —
// the right discipline for compute-bound prefill-only work (§6.1: batching
// prefill-only requests inflates latency without improving throughput).
// PrefillOnly and the two non-parallel baselines are all Serial engines;
// they differ in prefill strategy, KV residency, and scheduler.
type Serial struct {
	sim       *sim.Sim
	scheduler sched.Scheduler
	lc        lifecycle

	busy bool
	// cur is the request in service; the completion event carries the
	// engine itself (sim fast path), so the inflight rides here instead
	// of in a per-dispatch closure.
	cur *inflight

	// slow is the straggler speed factor (internal/chaos): when > 0 every
	// dispatched pass is priced slow× its modelled duration. Zero (the
	// untouched default) leaves the cost model bit-identical to a run
	// without fault injection.
	slow float64
	// killed marks a crashed engine whose in-service completion event is
	// still scheduled; serialDone swallows exactly one completion after a
	// mid-flight Kill (sim events cannot be cancelled).
	killed bool
}

// SerialSpec configures a Serial engine beyond the shared Config.
type SerialSpec struct {
	// Name labels the engine in records and output.
	Name string
	// Opts is the prefill execution strategy.
	Opts graph.Options
	// Scheduler orders the waiting queue. When nil, FIFO is used.
	Scheduler sched.Scheduler
	// ResidentKV requires pool space for a running request's fresh KV.
	ResidentKV bool
}

// NewSerial builds a Serial engine: it performs the profile run, sizes the
// prefix-cache pool from the remaining memory, and binds to the simulator.
func NewSerial(cfg Config, spec SerialSpec) (*Serial, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := spec.Opts.Validate(); err != nil {
		return nil, err
	}
	exec := graph.New(cfg.Model, cfg.GPU)
	prof, err := buildProfile(exec, spec.Opts, cfg.GPU, cfg.Model.WeightBytes(), cfg.ProfileMaxLen)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	cache, err := kvcache.New(kvcache.Config{
		BlockTokens:       cfg.blockTokens(),
		BytesPerToken:     cfg.Model.KVBytesPerToken(),
		CapacityBytes:     prof.pool,
		HostCapacityBytes: cfg.HostCacheBytes,
	})
	if err != nil {
		return nil, err
	}
	ti := cfg.Tracer.NewInstance(spec.Name)
	trace.WatchCache(ti, cache)
	s := &Serial{
		sim:       cfg.Sim,
		scheduler: spec.Scheduler,
		lc: lifecycle{
			name:        spec.Name,
			cfg:         cfg,
			exec:        exec,
			opts:        spec.Opts,
			cache:       cache,
			prof:        prof,
			ti:          ti,
			residentKV:  spec.ResidentKV,
			hostRestore: true,
			spillGPUs:   1,
		},
	}
	if s.scheduler == nil {
		s.scheduler = sched.NewFIFO()
	}
	return s, nil
}

// Name implements Engine.
func (s *Serial) Name() string { return s.lc.name }

// GPUs implements Engine.
func (s *Serial) GPUs() int { return 1 }

// Cache implements Engine.
func (s *Serial) Cache() *kvcache.Manager { return s.lc.cache }

// Scheduler exposes the queue policy (used by internal/core to wire JCT
// calibration).
func (s *Serial) Scheduler() sched.Scheduler { return s.scheduler }

// Executor exposes the cost model (used for JCT profiling).
func (s *Serial) Executor() *graph.Executor { return s.lc.exec }

// Options returns the engine's prefill strategy.
func (s *Serial) Options() graph.Options { return s.lc.opts }

// Submit implements Engine.
func (s *Serial) Submit(r *sched.Request) {
	s.scheduler.Enqueue(r)
	s.dispatch()
}

// dispatch starts the scheduler's next request if the device is idle.
func (s *Serial) dispatch() {
	if s.busy {
		return
	}
	now := s.sim.Now()
	r := s.scheduler.Next(now)
	if r == nil {
		return
	}
	s.busy = true

	inf := s.lc.begin(r, now)
	dur := s.lc.estimate(inf) + inf.restoreSeconds +
		spillSeconds(inf.spilled, s.lc.cfg.GPU.HostBWBytes)
	if s.slow > 0 {
		dur *= s.slow
	}
	s.cur = inf
	s.sim.AfterFunc(dur, serialDone, s)
}

// serialDone is the zero-alloc completion callback: one device, one
// request in service, so the engine pointer is the whole event payload.
func serialDone(arg any) {
	s := arg.(*Serial)
	if s.killed {
		// The engine crashed after this completion was scheduled; the
		// request was already orphaned by Kill. Drop the event.
		s.killed = false
		return
	}
	inf := s.cur
	s.cur = nil
	s.lc.finish(inf, s.sim.Now())
	s.busy = false
	s.dispatch()
}

// SetSpeedFactor makes the engine a straggler: every subsequent dispatch
// is priced factor× its modelled duration (factor > 1 is slower).
// factor <= 0 or 1 restores nominal speed. The request in service, if
// any, keeps its already-scheduled completion time.
func (s *Serial) SetSpeedFactor(factor float64) {
	if factor == 1 {
		factor = 0
	}
	s.slow = factor
}

// SpeedFactor returns the active straggler factor (0 when nominal).
func (s *Serial) SpeedFactor() float64 { return s.slow }

// Kill crashes the engine: the request in service is aborted (its pin and
// reservation released, no Record emitted), the waiting queue is drained,
// and both cache tiers are lost. It returns every orphaned request in
// deterministic order (in-service first, then scheduler order) so the
// router can re-admit them. The engine must not be submitted to again.
func (s *Serial) Kill() []*sched.Request {
	var orphans []*sched.Request
	if s.cur != nil {
		s.lc.abort(s.cur)
		orphans = append(orphans, s.cur.req)
		s.cur = nil
		s.killed = true
	}
	now := s.sim.Now()
	for {
		r := s.scheduler.Next(now)
		if r == nil {
			break
		}
		orphans = append(orphans, r)
	}
	s.busy = false
	s.lc.cache.LoseAll()
	return orphans
}

// spillSeconds prices the beyond-MIL fallback: each spilled byte crosses
// the host link twice.
func spillSeconds(bytes int64, hostBW float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return 2 * float64(bytes) / hostBW
}

// ReplaceScheduler swaps the queue policy of an idle, empty engine. It
// exists so internal/core can wire a scheduler whose JCT function closes
// over the engine's own cache and cost model.
func ReplaceScheduler(s *Serial, sc sched.Scheduler) error {
	if sc == nil {
		return fmt.Errorf("engine: nil scheduler")
	}
	if s.busy || s.scheduler.Len() > 0 {
		return fmt.Errorf("engine %s: cannot replace scheduler with work in flight", s.Name())
	}
	s.scheduler = sc
	return nil
}

// NewPagedAttention builds the PagedAttention baseline: standard prefill,
// full KV residency, FCFS scheduling (vLLM's defaults).
func NewPagedAttention(cfg Config) (*Serial, error) {
	return NewSerial(cfg, SerialSpec{
		Name:       "pagedattention",
		Opts:       graph.StandardOptions(),
		Scheduler:  sched.NewFIFO(),
		ResidentKV: true,
	})
}

// NewChunkedPrefill builds the chunked-prefill baseline (Sarathi-Serve):
// chunked execution, full KV residency, FCFS scheduling.
func NewChunkedPrefill(cfg Config, chunk int) (*Serial, error) {
	if chunk <= 0 {
		chunk = graph.DefaultChunkSize
	}
	return NewSerial(cfg, SerialSpec{
		Name:       "chunked-prefill",
		Opts:       graph.ChunkedOptions(chunk),
		Scheduler:  sched.NewFIFO(),
		ResidentKV: true,
	})
}
