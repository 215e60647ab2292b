package cluster

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestRoutingStickyAndRoundRobin(t *testing.T) {
	f, err := New(Spec{Kind: PagedAttention, Instances: 2,
		Config: engine.Config{Model: model.Llama31_8B(), GPU: hw.L4(), ProfileMaxLen: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	if f.GPUSeconds(1) != 2 {
		t.Fatalf("GPUSeconds(1) = %g, want 2", f.GPUSeconds(1))
	}
	c := &f.users
	// Users assigned round robin in first-seen order; repeat users sticky.
	if c.route(10) != 0 || c.route(20) != 1 || c.route(30) != 0 {
		t.Fatal("round-robin assignment broken")
	}
	for i := 0; i < 5; i++ {
		if c.route(20) != 1 {
			t.Fatal("user routing not sticky")
		}
	}
	// One instance tracks no users.
	one := firstAppearance{instances: 1, maxUsers: DefaultMaxTrackedUsers}
	for u := 0; u < 100; u++ {
		if one.route(u) != 0 {
			t.Fatal("single instance routed elsewhere")
		}
	}
	if len(one.byUser) != 0 || one.order.Len() != 0 {
		t.Fatalf("single instance tracked %d users", len(one.byUser))
	}
}

func TestSubmitRoutesByUser(t *testing.T) {
	f, err := New(Spec{Kind: PagedAttention, Instances: 2,
		Config: engine.Config{Model: model.Llama31_8B(), GPU: hw.L4(), ProfileMaxLen: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id int64, user int) *sched.Request {
		toks := make([]uint64, 1000)
		for i := range toks {
			toks[i] = uint64(user)<<32 | uint64(i)
		}
		return &sched.Request{ID: id, UserID: user, Tokens: toks}
	}
	f.Arrive([]workload.Arrival{{Req: mk(1, 0)}, {Req: mk(2, 1)}, {Req: mk(3, 0)}})
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	recs := f.Records()
	if len(recs) != 3 {
		t.Fatalf("completed %d", len(recs))
	}
	// Requests 1 and 3 (user 0) on the first instance, request 2 on the
	// second: the two instances work concurrently, so request 2 must not
	// wait for 1.
	var inst1, inst2 int
	for _, r := range recs {
		if r.Req.UserID == 0 {
			inst1++
		} else {
			inst2++
		}
	}
	if inst1 != 2 || inst2 != 1 {
		t.Fatalf("routing counts: user0=%d user1=%d", inst1, inst2)
	}
}

func TestTrackedUserBound(t *testing.T) {
	c := &firstAppearance{instances: 2, maxUsers: DefaultMaxTrackedUsers}
	if err := c.setMaxTrackedUsers(0); err == nil {
		t.Fatal("non-positive cap accepted")
	}
	if err := c.setMaxTrackedUsers(3); err != nil {
		t.Fatal(err)
	}
	// A million distinct users must never grow the table past the cap.
	for u := 0; u < 1_000_000; u++ {
		c.route(u)
		if len(c.byUser) > 3 {
			t.Fatalf("tracked users %d exceeds cap after user %d", len(c.byUser), u)
		}
	}
	if len(c.byUser) != 3 {
		t.Fatalf("tracked users = %d, want 3", len(c.byUser))
	}
	// The most recent users are still sticky.
	last := 999_999
	idx := c.route(last)
	for i := 0; i < 5; i++ {
		if c.route(last) != idx {
			t.Fatal("recent user lost stickiness")
		}
	}
	// Shrinking the cap evicts immediately.
	if err := c.setMaxTrackedUsers(1); err != nil {
		t.Fatal(err)
	}
	if len(c.byUser) != 1 {
		t.Fatalf("tracked users = %d after shrinking cap to 1", len(c.byUser))
	}
}

// Regression for the `order = order[1:]` retention bug: under user churn
// at the tracked-user cap, Route appends while evictOldest advances, and
// the slice form regrew the backing array on every append while pinning
// every evicted slot. The order ring's backing array must stay bounded by
// the cap — not by the total users ever routed.
func TestOrderRingBoundedUnderChurnAtCap(t *testing.T) {
	c := &firstAppearance{instances: 2, maxUsers: DefaultMaxTrackedUsers}
	const cap = 1000
	if err := c.setMaxTrackedUsers(cap); err != nil {
		t.Fatal(err)
	}
	// 10x the cap of distinct users: every Route beyond the cap evicts one
	// and appends one.
	for u := 0; u < 10*cap; u++ {
		c.route(u)
	}
	if len(c.byUser) != cap {
		t.Fatalf("tracked users = %d, want %d", len(c.byUser), cap)
	}
	if c.order.Len() != cap {
		t.Fatalf("order ring holds %d entries, want %d", c.order.Len(), cap)
	}
	if c.order.Cap() > 2*cap {
		t.Fatalf("order ring backing array holds %d slots after 10x-cap churn (cap %d)",
			c.order.Cap(), cap)
	}
}

func TestNewRejectsEmptyAndNil(t *testing.T) {
	base := Spec{Kind: PagedAttention, Instances: 1,
		Config: engine.Config{Model: model.Llama31_8B(), GPU: hw.L4(), ProfileMaxLen: 2000}}
	empty := base
	empty.Instances = 0
	if _, err := New(empty); err == nil {
		t.Error("empty fleet accepted")
	}
	noModel := base
	noModel.Config.Model = nil
	if _, err := New(noModel); err == nil {
		t.Error("nil model accepted")
	}
	unrouted, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := unrouted.EnableChaos(chaos.Config{CrashRate: 1}); err == nil {
		t.Error("chaos without a router accepted")
	}
	if _, err := TensorParallel.Instances(3); err == nil {
		t.Error("odd GPU count accepted for a pair-spanning engine")
	}
}
