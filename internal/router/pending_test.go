package router

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/kvcache"
	"repro/internal/sched"
	"repro/internal/sim"
)

// linearHit is hitTokens' reference: the block-by-block walk through
// cached ∪ pending.
func linearHit(st *instanceState, r *sched.Request) int {
	c := st.eng.Cache()
	if c == nil {
		return 0
	}
	hit := 0
	for _, h := range engine.HashesOf(r, c.BlockTokens()) {
		if !c.HasBlock(h) && !st.pendingBlocks.Has(h) {
			break
		}
		hit += c.BlockTokens()
	}
	return min(hit, r.Len())
}

// checkPendingEmpty asserts no instance still holds pending blocks.
func checkPendingEmpty(t *testing.T, rt *Router) {
	t.Helper()
	for _, st := range rt.instances {
		if n := st.pendingBlocks.Len(); n != 0 {
			t.Fatalf("instance %d holds %d pending blocks with nothing in flight", st.id, n)
		}
	}
}

// TestHitTokensMatchesLinearWalk: the binary-search hit estimate must
// equal the linear cached∪pending walk on every instance for probes
// sharing prefixes with routed work, through submits, completions and an
// instance crash whose orphans are re-admitted.
func TestHitTokensMatchesLinearWalk(t *testing.T) {
	var s sim.Sim
	engines, chain := killableCluster(t, &s, 3)
	rt, err := New(Config{Policy: AffinityLoad{}}, engines...)
	if err != nil {
		t.Fatal(err)
	}
	*chain = rt.Completed

	var probes []*sched.Request
	for user := 0; user < 4; user++ {
		for _, prefix := range []int{300, 900, 1500} {
			probes = append(probes, mkPostReq(int64(1_000_000+len(probes)), user, prefix, 64))
		}
	}
	hits := 0
	check := func(stage string) {
		t.Helper()
		for _, st := range rt.instances {
			for _, p := range probes {
				got, want := hitTokens(st, p), linearHit(st, p)
				if got != want {
					t.Fatalf("%s: instance %d probe %d: hitTokens %d, linear walk %d", stage, st.id, p.ID, got, want)
				}
				if got > 0 {
					hits++
				}
			}
		}
	}

	id := int64(0)
	for round := 0; round < 6; round++ {
		for k := 0; k < 8; k++ {
			id++
			if err := rt.Submit(mkPostReq(id, k%4, 600+150*k, 200)); err != nil {
				t.Fatal(err)
			}
			check("submit")
		}
		s.RunUntil(s.Now() + 0.3)
		check("partial drain")
		if round == 3 {
			orphans, err := rt.Fail(rt.InstanceInfos()[0].ID)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range orphans {
				if err := rt.Submit(r); err != nil {
					t.Fatal(err)
				}
			}
			check("after crash")
		}
	}
	s.Run()
	check("drained")
	if hits == 0 {
		t.Fatal("no probe ever hit: the test exercised nothing")
	}
	if rt.InFlight() != 0 {
		t.Fatalf("in-flight after drain: %d", rt.InFlight())
	}
	checkPendingEmpty(t, rt)
}

// TestPendingBlocksDrainOnCompletion: every routed block's refcount must
// return to zero once its requests complete, under each policy, so the
// pending tables cannot leak.
func TestPendingBlocksDrainOnCompletion(t *testing.T) {
	for _, pol := range []Policy{UserHash{}, LeastLoaded{}, AffinityLoad{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			rt, _ := runChurn(t, pol)
			checkPendingEmpty(t, rt)
		})
	}
}

// idleEngine is a stub instance with a real prefix cache that never runs
// what it is given, so a test can drive the router alone.
type idleEngine struct {
	engine.Engine // nil: the router calls only the methods below
	cache         *kvcache.Manager
}

func (e *idleEngine) Name() string            { return "idle" }
func (e *idleEngine) GPUs() int               { return 1 }
func (e *idleEngine) Cache() *kvcache.Manager { return e.cache }
func (e *idleEngine) Submit(r *sched.Request) {}

// TestSubmitCompletedZeroAllocs pins the routing round trip — policy
// view, hit probes, admission, pending refcounts, completion — at zero
// allocations per request in steady state.
func TestSubmitCompletedZeroAllocs(t *testing.T) {
	reqs := make([]*sched.Request, 8)
	for i := range reqs {
		reqs[i] = mkPostReq(int64(i+1), i%3, 800+100*i, 160)
	}
	for _, pol := range []Policy{UserHash{}, LeastLoaded{}, AffinityLoad{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			engines := make([]engine.Engine, 4)
			for i := range engines {
				cache, err := kvcache.New(kvcache.Config{BlockTokens: 16, BytesPerToken: 1, CapacityBytes: 1 << 20})
				if err != nil {
					t.Fatal(err)
				}
				// Warm part of one user's prefix so hit probes find blocks.
				cache.InsertH(engine.HashesOf(reqs[i], 16)[:20], 0)
				engines[i] = &countingEngine{Engine: &idleEngine{cache: cache}}
			}
			rt, err := New(Config{Policy: pol, MaxBacklogSeconds: 1e9}, engines...)
			if err != nil {
				t.Fatal(err)
			}
			round := func(r *sched.Request) {
				if err := rt.Submit(r); err != nil {
					t.Fatal(err)
				}
				rt.Completed(engine.Record{Req: r})
			}
			for _, r := range reqs { // warm-up: memoize hashes, size tables
				round(r)
			}
			i := 0
			allocs := testing.AllocsPerRun(1000, func() {
				round(reqs[i%len(reqs)])
				i++
			})
			if allocs != 0 {
				t.Fatalf("Submit+Completed allocate %.1f times per request in steady state", allocs)
			}
			checkPendingEmpty(t, rt)
		})
	}
}
