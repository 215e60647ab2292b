package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/sched"
)

// TestBackendAccountingUnderConcurrentClients drives a routed,
// autoscaled, chaos-armed backend from concurrent clients. Once every
// call has returned the fleet is quiescent, and every submission must be
// accounted for exactly once: completed, shed at admission, or shed
// after a fault orphaned it.
func TestBackendAccountingUnderConcurrentClients(t *testing.T) {
	b, err := NewAutoscaledBackend(engine.Config{
		Model:         model.Llama31_8B(),
		GPU:           hw.L4(),
		ProfileMaxLen: 4000,
	}, core.Options{}, 1e3, router.Config{MaxBacklogSeconds: 1},
		autoscale.Config{MinInstances: 2, MaxInstances: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.EnableTimeseries(1000)
	// Rates per simulated second; at 1e3x the run spans a few hundred
	// simulated seconds, so faults land on queued and running work. With
	// no retry budget every orphan is shed, and the tight admission bound
	// sheds at the front door too: all three terms of the identity move.
	if err := b.EnableChaos(chaos.Config{
		Seed: 11, CrashRate: 0.05, StragglerRate: 0.05, StragglerSeconds: 5,
		PreemptRate: 0.02, NoticeSeconds: 2, RetryBudget: -1,
	}); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	deadline := time.Now().Add(400 * time.Millisecond)
	var calls, served, shed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			profile := strings.Repeat(fmt.Sprintf("user %d likes systems papers. ", c), 300)
			class := sched.Class(c % 2)
			for i := 0; time.Now().Before(deadline); i++ {
				calls.Add(1)
				_, err := b.SubmitClass(profile+fmt.Sprintf("post %d: recommend? Answer:", i), nil, c, class)
				var rej *router.RejectError
				switch {
				case err == nil:
					served.Add(1)
				case errors.As(err, &rej):
					shed.Add(1)
				default:
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	if served.Load()+shed.Load() != calls.Load() || served.Load() == 0 {
		t.Fatalf("%d calls: %d served + %d shed", calls.Load(), served.Load(), shed.Load())
	}
	b.mu.Lock()
	err = b.fleet.CheckAccounting()
	b.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Faults == nil || st.Faults.ByKind[chaos.LabelCrash] == 0 {
		t.Fatalf("no crash fired during the run: %+v", st.Faults)
	}
	t.Logf("%d calls: %d served, %d shed; faults %v, %d orphaned (%d rerouted, %d shed)",
		calls.Load(), served.Load(), shed.Load(), st.Faults.ByKind,
		st.Faults.Orphaned, st.Faults.Rerouted, st.Faults.Shed)
}
