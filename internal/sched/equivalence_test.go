package sched_test

// Equivalence oracle for the incremental Algorithm-1 scheduler: across
// seeded randomized workloads with prefix sharing, cache churn, LRU
// evictions, reservation pressure, pin churn, host offloading, whole-cache
// eviction and crash-style cache loss, the frontier-indexed Calibrated
// must emit a dispatch order byte-identical to the reference full-sweep
// implementation driven against an identical twin cache, and its index
// must stay exact: at most two registrations per waiting request, none
// once the queue drains.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/kvcache"
	"repro/internal/sched"
)

const eqBlockTokens = 16

// chainOf returns the request's memoized block-hash chain.
func chainOf(r *sched.Request) []uint64 {
	return engine.HashesOf(r, eqBlockTokens)
}

// missJCT estimates JCT as scaled cache-miss tokens against m, like the
// paper's proxy estimator.
func missJCT(m *kvcache.Manager) sched.JCTFunc {
	return func(r *sched.Request) float64 {
		cached := m.PeekH(chainOf(r))
		if cached > r.Len() {
			cached = r.Len()
		}
		return 0.01 * float64(r.Len()-cached)
	}
}

// twinOps drives the incremental scheduler and the reference sweep through
// one operation sequence against twin caches. pick(n) chooses in [0, n);
// the seeded test draws it from math/rand, the fuzz target from bytes.
type twinOps struct {
	t            *testing.T
	pick         func(n int) int
	mInc, mSweep *kvcache.Manager
	inc          *sched.Calibrated
	sweep        *sched.CalibratedSweep
	nextID       int64
	now          float64
	releases     [][2]func() // open reservations/pins, mirrored pairwise
}

func newTwinOps(t *testing.T, pick func(int) int, batchWeight float64) *twinOps {
	mkMgr := func() *kvcache.Manager {
		m, err := kvcache.New(kvcache.Config{
			BlockTokens:       eqBlockTokens,
			BytesPerToken:     1,
			CapacityBytes:     48 * eqBlockTokens,  // 48 blocks: tight, constant eviction
			HostCapacityBytes: 128 * eqBlockTokens, // §9 offload tier enabled
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Only mInc's change feed reaches the incremental scheduler.
	o := &twinOps{t: t, pick: pick, mInc: mkMgr(), mSweep: mkMgr(), nextID: 1}
	o.inc = sched.NewCalibrated(missJCT(o.mInc), 500)
	engine.AttachIncremental(o.inc, o.mInc)
	o.sweep = sched.NewCalibratedSweep(missJCT(o.mSweep), 500)
	if batchWeight > 0 {
		weights := map[sched.Class]float64{sched.ClassBatch: batchWeight}
		o.inc.SetClassWeights(weights)
		o.sweep.SetClassWeights(weights)
	}
	return o
}

func (o *twinOps) mkReq() *sched.Request {
	user := o.pick(6)
	shared := o.pick(8) * eqBlockTokens
	tail := (o.pick(8) + 1) * eqBlockTokens
	toks := make([]uint64, 0, shared+tail)
	for i := 0; i < shared; i++ {
		toks = append(toks, uint64(user+1)<<40|uint64(i))
	}
	for i := 0; i < tail; i++ {
		toks = append(toks, uint64(o.nextID)<<16|uint64(i))
	}
	class := sched.ClassInteractive
	if o.pick(3) == 0 {
		class = sched.ClassBatch
	}
	r := &sched.Request{ID: o.nextID, UserID: user, Tokens: toks, ArrivalTime: o.now, Class: class}
	o.nextID++
	return r
}

func idOf(r *sched.Request) string {
	if r == nil {
		return "nothing"
	}
	return fmt.Sprintf("request %d", r.ID)
}

func (o *twinOps) both(op func(m *kvcache.Manager)) {
	op(o.mInc)
	op(o.mSweep)
}

func (o *twinOps) hold(op func(m *kvcache.Manager) func()) {
	o.releases = append(o.releases, [2]func(){op(o.mInc), op(o.mSweep)})
}

// dispatch pops one request from each scheduler and requires them to
// agree; the completion then caches its chain in both caches.
func (o *twinOps) dispatch() bool {
	a := o.inc.Next(o.now)
	b := o.sweep.Next(o.now)
	switch {
	case a == nil && b == nil:
		return false
	case a == nil || b == nil || a.ID != b.ID:
		o.t.Fatalf("t=%.3f: incremental dispatched %s, sweep %s", o.now, idOf(a), idOf(b))
	}
	o.both(func(m *kvcache.Manager) { m.InsertH(chainOf(a), o.now) })
	return true
}

// step applies one randomly chosen operation, then checks the queues
// agree and the frontier index matches the cache.
func (o *twinOps) step() {
	o.now += float64(o.pick(1000)) / 1000 * 0.3
	switch o.pick(14) {
	case 0, 1, 2, 3, 4:
		r := o.mkReq()
		o.inc.Enqueue(r)
		o.sweep.Enqueue(r)
	case 5, 6, 7:
		o.dispatch()
	case 8: // foreign completion: insert a never-scheduled chain
		h := chainOf(o.mkReq())
		o.both(func(m *kvcache.Manager) { m.InsertH(h, o.now) })
	case 9: // reservation pressure forces evictions
		need := int64(o.pick(24) * eqBlockTokens)
		o.hold(func(m *kvcache.Manager) func() {
			_, rel := m.Reserve(need)
			return rel
		})
	case 10: // pin churn (membership-neutral: must not rekey)
		h := chainOf(o.mkReq())
		o.hold(func(m *kvcache.Manager) func() {
			_, rel := m.PinH(h, o.now)
			return rel
		})
	case 11:
		if len(o.releases) > 0 {
			i := o.pick(len(o.releases))
			o.releases[i][0]()
			o.releases[i][1]()
			o.releases = append(o.releases[:i], o.releases[i+1:]...)
		}
	case 12: // reconfiguration: drop every unpinned block
		o.both((*kvcache.Manager).EvictAll)
	case 13: // crash: lose every unpinned block and the host tier
		o.both((*kvcache.Manager).LoseAll)
	}
	if o.inc.Len() != o.sweep.Len() {
		o.t.Fatalf("queue lengths diverged (%d vs %d)", o.inc.Len(), o.sweep.Len())
	}
	if err := o.inc.CheckFrontier(); err != nil {
		o.t.Fatal(err)
	}
}

// drain releases every hold, dispatches the rest of the queue in lockstep
// and checks the index emptied with it.
func (o *twinOps) drain() {
	for _, rel := range o.releases {
		rel[0]()
		rel[1]()
	}
	o.releases = nil
	for o.dispatch() {
		o.now += float64(o.pick(1000)) / 1000 * 0.3
	}
	if n := o.inc.FrontierLen(); n != 0 {
		o.t.Fatalf("frontier index holds %d hashes after the queue drained", n)
	}
	if err := o.mInc.CheckInvariants(); err != nil {
		o.t.Fatal(err)
	}
}

func TestIncrementalCalibratedMatchesSweep(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Half the seeds run class-weighted (batch yields to
		// interactive): the heap-vs-sweep equivalence must hold with SLO
		// class weights folded into the key exactly as in the
		// class-blind default.
		weight := 0.0
		if seed%2 == 1 {
			weight = 2 + float64(seed)
		}
		o := newTwinOps(t, rng.Intn, weight)
		for op := 0; op < 800; op++ {
			o.step()
		}
		o.drain()
	}
}

// TestFrontierIndexStaysBounded builds a deep queue of requests sharing
// per-user prefixes, churns the cache under it, and checks the index never
// holds more than two registrations per waiting request and empties when
// the queue drains. The whole-chain index it replaced held one per block.
func TestFrontierIndexStaysBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	o := newTwinOps(t, rng.Intn, 0)
	for i := 0; i < 300; i++ {
		r := o.mkReq()
		o.inc.Enqueue(r)
		o.sweep.Enqueue(r)
		if i%3 == 0 {
			h := chainOf(o.mkReq())
			o.both(func(m *kvcache.Manager) { m.InsertH(h, o.now) })
		}
	}
	if err := o.inc.CheckFrontier(); err != nil {
		t.Fatal(err)
	}
	if n := o.inc.FrontierLen(); n > 2*o.inc.Len() {
		t.Fatalf("index holds %d hashes for %d waiting requests", n, o.inc.Len())
	}
	for op := 0; op < 400; op++ {
		o.step()
	}
	o.drain()
}

// FuzzIncrementalCalibratedMatchesSweep drives the twin-cache oracle with
// operation sequences decoded from the fuzz input: the first byte picks
// the class weighting, then each byte chooses the next decision.
func FuzzIncrementalCalibratedMatchesSweep(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{1, 0, 0, 0, 0, 5, 12, 0, 0, 13, 9, 20, 6, 11, 0, 7, 8, 8, 10, 3, 6})
	f.Add([]byte("\x02 interleaved enqueues, evictions and crash-style losses \x0d\x0c\x05"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		weight := float64(data[0] % 4) // 0: class-blind
		data = data[1:]
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		o := newTwinOps(t, pick, weight)
		for len(data) > 0 {
			o.step()
		}
		o.drain()
	})
}
