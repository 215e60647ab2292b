package prefillonly

// Root-level replay oracles through the public facade: a simulation is a
// pure function of its config, its submissions and their seeds, so a
// rerun from a clone of the same dataset must reproduce every record.
// These complement internal/experiments' sweep-level oracles by covering
// the facade's own wiring: routed clusters, PP engine pairs, the elastic
// pool's mid-run instance creation, and tracing. The names date from the
// serial-vs-sharded form of these oracles; the simulator now has one
// kernel.

import "testing"

// recordKey is the part of a completion record the oracles compare.
type recordKey struct {
	id                     int64
	arrival, start, finish float64
	instance               string
}

func recordKeys(recs []Record) []recordKey {
	out := make([]recordKey, len(recs))
	for i, r := range recs {
		out[i] = recordKey{r.Req.ID, r.Arrival, r.Start, r.Finish, r.Instance}
	}
	return out
}

func requireSameRecords(t *testing.T, label string, want, got []recordKey) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: first run completed nothing", label)
	}
	if len(want) != len(got) {
		t.Fatalf("%s: %d records, first run had %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: record %d diverged: first %+v rerun %+v", label, i, want[i], got[i])
		}
	}
}

// TestSimulationShardedRoutedCluster: four routed PrefillOnly instances
// with router decisions and admission.
func TestSimulationShardedRoutedCluster(t *testing.T) {
	ds := NewSkewed(SkewedConfig{Users: 12, Requests: 72, ProfileMean: 2500,
		ProfileStd: 500, ProfileMin: 1500, ProfileMax: 4000, Seed: 7})
	run := func() []recordKey {
		s, err := NewSimulation(SimulationConfig{
			GPUs: 4, MaxInputLen: 6000,
			RoutingPolicy: "affinity", MaxBacklogSeconds: 25,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SubmitDataset(ds.Clone(), 14, 11); err != nil {
			t.Fatal(err)
		}
		return recordKeys(s.Run())
	}
	requireSameRecords(t, "routed cluster", run(), run())
}

// TestSimulationShardedPipelineParallel: PP=2 engine pairs, whose stage
// handoffs are events between the two halves of one instance.
func TestSimulationShardedPipelineParallel(t *testing.T) {
	ds := NewPostRecommendation(PostRecommendationConfig{Users: 6, PostsPerUser: 8, Seed: 5})
	run := func() []recordKey {
		s, err := NewSimulation(SimulationConfig{
			Engine: EnginePipelineParallel, GPUs: 8, MaxInputLen: 6000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SubmitDataset(ds.Clone(), 10, 13); err != nil {
			t.Fatal(err)
		}
		return recordKeys(s.Run())
	}
	requireSameRecords(t, "pipeline parallel", run(), run())
}

// TestSimulationShardedAutoscale: the elastic pool under a square-wave
// burst — cold starts, mid-run scale-ups creating fresh instances, drains
// retiring them. Records and controller state must both reproduce.
func TestSimulationShardedAutoscale(t *testing.T) {
	type result struct {
		recs               []recordKey
		rejected           int
		scaleUps, peak     int
		coldStartSeconds   float64
		gpuSeconds, endSim float64
	}
	ds := NewSkewed(SkewedConfig{Users: 16, Requests: 96, ProfileMean: 2500,
		ProfileStd: 500, ProfileMin: 1500, ProfileMax: 4000, Seed: 3})
	run := func() result {
		s, err := NewSimulation(SimulationConfig{
			GPUs: 4, MaxInputLen: 5000,
			RoutingPolicy: "affinity", MaxBacklogSeconds: 20,
			Autoscale: &AutoscaleConfig{MinInstances: 1, UpBacklogSeconds: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		arrivals, err := AssignOpenLoopArrivals(ds.Clone(), SquareWaveRate(1, 12, 30, 0.4), 12, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arrivals {
			s.SubmitAt(a.Time, a.Req)
		}
		recs := s.Run()
		ctl := s.Autoscaler()
		if err := ctl.Err(); err != nil {
			t.Fatal(err)
		}
		st := ctl.Stats()
		return result{
			recs: recordKeys(recs), rejected: s.Rejected(),
			scaleUps: st.ScaleUps, peak: st.PeakInstances,
			coldStartSeconds: st.ColdStartSeconds,
			gpuSeconds:       ctl.GPUSeconds(s.Now()), endSim: s.Now(),
		}
	}
	first := run()
	if first.scaleUps == 0 {
		t.Fatal("burst did not grow the pool; the oracle would not cover churn")
	}
	got := run()
	requireSameRecords(t, "autoscale", first.recs, got.recs)
	if got.rejected != first.rejected || got.scaleUps != first.scaleUps ||
		got.peak != first.peak || got.coldStartSeconds != first.coldStartSeconds ||
		got.gpuSeconds != first.gpuSeconds || got.endSim != first.endSim {
		t.Fatalf("controller state diverged: first %+v rerun %+v", first, got)
	}
}

// TestSimulationShardedTracingDoesNotPerturb: a run traced through a ring
// small enough to drop spans must equal the untraced run, and the ring's
// accounting must stay exact.
func TestSimulationShardedTracingDoesNotPerturb(t *testing.T) {
	ds := NewSkewed(SkewedConfig{Users: 12, Requests: 60, ProfileMean: 2500,
		ProfileStd: 500, ProfileMin: 1500, ProfileMax: 4000, Seed: 9})
	run := func(spans int) ([]recordKey, *Simulation) {
		s, err := NewSimulation(SimulationConfig{
			GPUs: 4, MaxInputLen: 6000,
			RoutingPolicy: "affinity", TraceSpans: spans,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SubmitDataset(ds.Clone(), 12, 17); err != nil {
			t.Fatal(err)
		}
		return recordKeys(s.Run()), s
	}
	plain, _ := run(0)
	traced, s := run(128)
	requireSameRecords(t, "traced", plain, traced)
	rec := s.Trace()
	if rec == nil {
		t.Fatal("no recorder")
	}
	if rec.TotalEmitted() == 0 || rec.Dropped() == 0 {
		t.Fatalf("traced run emitted %d spans, dropped %d; want a full ring", rec.TotalEmitted(), rec.Dropped())
	}
	if got, want := rec.Dropped()+uint64(rec.Len()), rec.TotalEmitted(); got != want {
		t.Fatalf("ring invariant broken: dropped %d + held %d != emitted %d",
			rec.Dropped(), rec.Len(), rec.TotalEmitted())
	}
}
