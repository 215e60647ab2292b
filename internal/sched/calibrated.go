package sched

import "fmt"

// --- SRJF (static) ---

// SRJF is shortest-remaining-job-first with the JCT estimated once, at
// arrival (§6.2's "traditional JCT-based scheduling"). It fails to react
// when prefix caches appear or are evicted after enqueue. The queue is a
// min-heap on the frozen JCT, ties broken by enqueue order.
type SRJF struct {
	jct JCTFunc
	h   entryHeap
	seq uint64
}

// NewSRJF returns an SRJF scheduler that freezes each request's JCT at
// enqueue time using the supplied estimator.
func NewSRJF(jct JCTFunc) *SRJF {
	if jct == nil {
		panic("sched: SRJF requires a JCT function")
	}
	return &SRJF{jct: jct}
}

// Name implements Scheduler.
func (s *SRJF) Name() string { return "srjf" }

// Enqueue implements Scheduler.
func (s *SRJF) Enqueue(r *Request) {
	s.h.push(&entry{r: r, key: s.jct(r), seq: s.seq})
	s.seq++
}

// Len implements Scheduler.
func (s *SRJF) Len() int { return s.h.len() }

// Next implements Scheduler.
func (s *SRJF) Next(now float64) *Request {
	e := s.h.popMin()
	if e == nil {
		return nil
	}
	// The key is the frozen arrival-time JCT; stamp it for observability.
	e.r.EstimatedSeconds = e.key
	return e.r
}

// --- SRJF with continuous JCT calibration (Algorithm 1) ---

// Calibrated is PrefillOnly's scheduler (Algorithm 1): every scheduling
// decision runs the waiting request with the minimum calibrated score
//
//	score(r, now) = jct(r) − λ/1000·(now − r.ArrivalTime),
//
// where jct consults the live prefix cache and λ·T_queue is a queueing-
// time fairness credit.
//
// Instead of sweeping the whole queue every decision, Calibrated keeps an
// indexed min-heap on the time-invariant key
//
//	key(r) = w(r.Class)·jct(r) + λ/1000·r.ArrivalTime,
//
// which differs from score(r, now) only by the term −λ/1000·now shared by
// every waiting request, so the heap order equals the score order at any
// instant. w is the per-class SLO weight (default 1 for every class, the
// class-blind paper policy): a class with weight w pays w seconds of
// effective JCT per real second, so batch work with w > 1 yields to
// interactive work whenever their weighted costs cross. The weight is
// fixed per class at SetClassWeights time, so the key stays
// time-invariant.
//
// Keys go stale only when the cache changes, and only through a
// request's cached-prefix length k (the SetHashChain contract). Wire
// SetHashChain and feed the cache's membership changes to OnCacheChange
// (kvcache.Manager.Subscribe), and each waiting request is indexed under
// its frontier: hashes[k], whose insertion is the only way k can grow,
// and hashes[k-1], whose eviction is the only way k can shrink. That
// holds because a chain's cached blocks always form a prefix of it: the
// cache inserts a block only after its parent, and evicts only blocks no
// cached block chains onto. So an enqueue or dispatch touches at most two
// index slots, and a cache change rekeys just the requests whose frontier
// it crossed — O(log n) per dispatch plus O(affected) rekeys. Without
// that wiring, Calibrated remains correct by recomputing every key before
// each decision (the reference sweep's cost).
//
// Requests whose ArrivalTime lies in the future are ordered with their
// λ·arrival credit already applied (the score formula clamps T_queue at
// zero instead); engines never enqueue future arrivals.
type Calibrated struct {
	jct JCTFunc
	// lambda is the fairness parameter, in milliseconds of JCT credit
	// per second of queueing (the paper's default is 500, so one second
	// of waiting offsets 0.5 s of estimated JCT). It is fixed at
	// construction because it is baked into each waiting request's key.
	lambda float64

	// weights holds the per-class JCT multipliers; all 1 (class-blind)
	// until SetClassWeights. Fixed before the first enqueue because each
	// waiting request's weight is baked into its key.
	weights [NumClasses]float64

	chain  func(*Request) []uint64
	cached func([]uint64) int
	h      entryHeap
	seq    uint64

	// frontier maps a block hash to the waiting entries whose cached-
	// prefix length a membership change of that block would move.
	frontier map[uint64]*frontierLink
	// affected is OnCacheChange's reusable collection buffer.
	affected []*entry
}

// frontierLink is one registration of an entry in the frontier index: a
// node of the intrusive list of entries indexed under hash. e is nil while
// the link is not registered.
type frontierLink struct {
	e          *entry
	hash       uint64
	prev, next *frontierLink
}

// uniformWeights is the class-blind default: every class weighs 1.
func uniformWeights() [NumClasses]float64 {
	var w [NumClasses]float64
	for i := range w {
		w[i] = 1
	}
	return w
}

// classWeight looks a request's class weight up, treating out-of-range
// classes as weight 1.
func classWeight(w [NumClasses]float64, c Class) float64 {
	if int(c) >= len(w) {
		return 1
	}
	return w[c]
}

// setClassWeights validates and copies per-class weights into dst — the
// one implementation shared by the heap scheduler and its sweep oracle,
// so their weight semantics cannot drift apart. waiting guards the
// baked-into-keys invariant: weights are immutable once requests wait.
func setClassWeights(dst *[NumClasses]float64, w map[Class]float64, waiting int) {
	if waiting > 0 {
		panic("sched: SetClassWeights with requests already waiting")
	}
	//prefill:allow(simdeterminism): each class writes its own array slot; iteration order cannot change the result
	for cl, wt := range w {
		if wt <= 0 {
			panic(fmt.Sprintf("sched: class weight for %s must be positive, got %g", cl, wt))
		}
		if int(cl) < len(dst) {
			dst[cl] = wt
		}
	}
}

// NewCalibrated returns the calibrated scheduler. jct is evaluated at
// enqueue and whenever a cache change moves a request's cached prefix.
func NewCalibrated(jct JCTFunc, lambda float64) *Calibrated {
	if jct == nil {
		panic("sched: Calibrated requires a JCT function")
	}
	return &Calibrated{jct: jct, lambda: lambda, weights: uniformWeights()}
}

// SetClassWeights sets the per-class JCT multipliers of the heap key
// (weights at missing keys stay 1, the class-blind default). Weights must
// be positive and, like λ, are baked into every waiting request's key, so
// they must be set before any request is enqueued.
func (c *Calibrated) SetClassWeights(w map[Class]float64) {
	setClassWeights(&c.weights, w, c.h.len())
}

// Name implements Scheduler.
func (c *Calibrated) Name() string {
	return fmt.Sprintf("srjf-calibrated(λ=%g)", c.lambda)
}

// SetHashChain enables incremental rekeying. chain returns the block-hash
// chain the JCT function's cache lookup walks (the same block size), and
// cached returns how many leading blocks of a chain the cache holds now.
//
// Contract: jct(r) may depend on the cache only through
// cached(chain(r)), the request's cached-prefix length. A request whose
// cached prefix did not move keeps its key without re-running jct, so a
// JCT function that read any other cache state would go stale. It must
// be wired before any request is enqueued.
func (c *Calibrated) SetHashChain(chain func(*Request) []uint64, cached func([]uint64) int) {
	if c.h.len() > 0 {
		panic("sched: SetHashChain with requests already waiting")
	}
	c.chain = chain
	c.cached = cached
	c.frontier = make(map[uint64]*frontierLink)
}

// Enqueue implements Scheduler.
func (c *Calibrated) Enqueue(r *Request) {
	e := &entry{r: r, key: c.key(r), seq: c.seq}
	c.seq++
	if c.chain != nil {
		e.hashes = c.chain(r)
		e.cached = c.cached(e.hashes)
		c.link(e)
	}
	c.h.push(e)
}

// link registers e under its frontier: the first uncached block of its
// chain and the last cached one, when they exist.
func (c *Calibrated) link(e *entry) {
	if e.cached < len(e.hashes) {
		c.push(&e.links[0], e, e.hashes[e.cached])
	}
	if e.cached > 0 {
		c.push(&e.links[1], e, e.hashes[e.cached-1])
	}
}

// unlink removes e's frontier registrations.
func (c *Calibrated) unlink(e *entry) {
	c.drop(&e.links[0])
	c.drop(&e.links[1])
}

// push prepends l, a registration of e under hash, to hash's list.
func (c *Calibrated) push(l *frontierLink, e *entry, hash uint64) {
	l.e, l.hash, l.prev, l.next = e, hash, nil, c.frontier[hash]
	if l.next != nil {
		l.next.prev = l
	}
	c.frontier[hash] = l
}

// drop unlinks l from its hash's list, deleting the list once empty.
func (c *Calibrated) drop(l *frontierLink) {
	if l.e == nil {
		return
	}
	switch {
	case l.prev != nil:
		l.prev.next = l.next
	case l.next != nil:
		c.frontier[l.hash] = l.next
	default:
		delete(c.frontier, l.hash)
	}
	if l.next != nil {
		l.next.prev = l.prev
	}
	*l = frontierLink{}
}

// Len implements Scheduler.
func (c *Calibrated) Len() int { return c.h.len() }

// key returns the time-invariant heap key of a request.
func (c *Calibrated) key(r *Request) float64 {
	return classWeight(c.weights, r.Class)*c.jct(r) + c.lambda/1000*r.ArrivalTime
}

// Score returns the Algorithm-1 score of a request at time now:
// w(class)·jct(n_input, n_cached) − λ·T_queue. Exported for tests and
// diagnostics. Note Score clamps T_queue at zero while the dispatch order
// uses the unclamped key, so for a request whose ArrivalTime lies in the
// future (never produced by engines) Score does not predict dispatch
// order.
func (c *Calibrated) Score(r *Request, now float64) float64 {
	queue := now - r.ArrivalTime
	if queue < 0 {
		queue = 0
	}
	return classWeight(c.weights, r.Class)*c.jct(r) - c.lambda/1000*queue
}

// Next implements Scheduler: the minimum-key request wins.
func (c *Calibrated) Next(now float64) *Request {
	if c.chain == nil {
		// No cache-event feed: every key may be stale, recalibrate all.
		for _, e := range c.h.items {
			e.key = c.key(e.r)
		}
		c.h.reinit()
	}
	e := c.h.popMin()
	if e == nil {
		return nil
	}
	c.unlink(e)
	e.r.EstimatedSeconds = c.estimateOf(e)
	return e.r
}

// estimateOf recovers the calibrated JCT estimate from an entry's
// time-invariant key (key = w·jct + λ/1000·arrival), so dispatch does not
// re-run the cost model just to stamp the estimate.
func (c *Calibrated) estimateOf(e *entry) float64 {
	return (e.key - c.lambda/1000*e.r.ArrivalTime) / classWeight(c.weights, e.r.Class)
}

// OnCacheChange rekeys the waiting requests whose frontier includes any
// of the inserted or evicted blocks. Wire it to the owning cache's change
// feed (kvcache.Manager.Subscribe). Whatever else one cache operation
// did, a request whose cached prefix moved from k blocks saw hashes[k]
// inserted (k grew) or hashes[k-1] evicted (k shrank), so the requests
// reached here are the only ones whose key can have changed.
func (c *Calibrated) OnCacheChange(inserted, evicted []uint64) {
	if c.chain == nil {
		return
	}
	// Collect first: rekeying relinks entries in the lists being walked.
	for _, hs := range [2][]uint64{inserted, evicted} {
		for _, h := range hs {
			for l := c.frontier[h]; l != nil; l = l.next {
				c.affected = append(c.affected, l.e)
			}
		}
	}
	// Rekey order only permutes the heap's internal array; pop order is a
	// strict total order on (key, len desc, seq), so dispatch stays
	// byte-identical — pinned by the sweep-oracle property test.
	for i, e := range c.affected {
		c.affected[i] = nil
		k := c.cached(e.hashes)
		if k == e.cached {
			// Unmoved prefix, same key: a block that left and came back,
			// or an entry collected through both links and rekeyed already.
			continue
		}
		c.unlink(e)
		e.cached = k
		c.link(e)
		e.key = c.key(e.r)
		c.h.fix(e)
	}
	c.affected = c.affected[:0]
}
