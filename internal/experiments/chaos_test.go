package experiments

import (
	"testing"
)

// TestChaosSweepRecovery pins the sweep's recovery semantics on the
// committed-benchmark shape: the failure-free baseline sees no faults,
// the crash row orphans work but re-admits most of it (shed strictly
// below orphaned under a positive retry budget), and the autoscaler
// restores routable capacity after kills.
func TestChaosSweepRecovery(t *testing.T) {
	rows, err := ChaosSweep(1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("sweep returned %d rows, want 4 modes", len(rows))
	}
	base := rows[0]
	if base.Mode != "failure-free" || base.Faults != 0 || base.Orphaned != 0 {
		t.Fatalf("baseline row is not failure-free: %+v", base)
	}
	if base.P99DegradationVsBaseline != 0 || base.ShedRateDeltaVsBaseline != 0 {
		t.Errorf("baseline degrades vs itself: %+v", base)
	}
	byMode := map[string]ChaosSweepRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
		if r.Orphaned != r.OrphansRerouted+r.OrphansShed {
			t.Errorf("%s: orphaned %d != rerouted %d + shed %d",
				r.Mode, r.Orphaned, r.OrphansRerouted, r.OrphansShed)
		}
	}
	crash := byMode["crash"]
	if crash.Faults == 0 || crash.Orphaned == 0 {
		t.Fatalf("crash row injected nothing: %+v", crash)
	}
	// Recovery, not just failure: with a positive retry budget most
	// orphans are re-admitted, and the pool comes back after each kill.
	if crash.OrphansShed >= crash.Orphaned {
		t.Errorf("crash row shed every orphan (%d of %d): re-admission is not working",
			crash.OrphansShed, crash.Orphaned)
	}
	if crash.Recoveries == 0 {
		t.Error("no crash recovery observed: the autoscaler never restored the pool")
	}
	if crash.Recoveries > 0 && crash.MeanRecoverySeconds <= 0 {
		t.Errorf("recoveries %d with mean recovery %gs", crash.Recoveries, crash.MeanRecoverySeconds)
	}
	straggler := byMode["straggler"]
	if straggler.Faults == 0 {
		t.Error("straggler row injected nothing")
	}
	if straggler.Orphaned != 0 {
		t.Errorf("stragglers orphaned %d requests: slow nodes must not drop work", straggler.Orphaned)
	}
	if straggler.P99JCT <= base.P99JCT {
		t.Errorf("straggler p99 %g not above baseline %g: the slow episodes cost nothing",
			straggler.P99JCT, base.P99JCT)
	}
	preempt := byMode["preempt"]
	if preempt.Faults == 0 {
		t.Error("preempt row injected nothing")
	}
}

// TestChaosRunValidation covers the config guards.
func TestChaosRunValidation(t *testing.T) {
	if _, err := ChaosRun(ChaosRunConfig{}); err == nil {
		t.Error("ChaosRun accepted a zero config")
	}
}
