package experiments

// Replay oracles at the experiments layer: a run is a pure function of its
// config and seed, so rerunning a sweep or a run family in the same
// process — from clones of the same base datasets, with or without cell
// parallelism or tracing on top — must reproduce its results byte for
// byte. They drive the real engines (pass pipelines, PP stage handoffs),
// the router, the autoscaler and the tracer. The names date from the
// serial-vs-sharded form of these oracles; the simulator now has one
// kernel.

import (
	"testing"
)

// TestRoutingSweepShardedOracle: the full routing sweep — router churn
// across four instances, admission accounting, load balance — must be
// byte-identical with and without cell parallelism.
func TestRoutingSweepShardedOracle(t *testing.T) {
	serialRows, _, err := RoutingSweepParallel(1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := RoutingSweepParallel(1, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustJSON(t, serialRows), mustJSON(t, rows)
	if string(a) != string(b) {
		t.Fatalf("2-worker routing sweep diverged from serial:\nserial:   %s\nparallel: %s", a, b)
	}
}

// TestAutoscaleSweepShardedOracle covers the most interleaving-sensitive
// path: controller ticks, mid-run scale-ups and drains. A second serial
// sweep in the same process must reproduce the first.
func TestAutoscaleSweepShardedOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep with profile runs")
	}
	firstRows, _, err := AutoscaleSweepParallel(1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := AutoscaleSweepParallel(1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustJSON(t, firstRows), mustJSON(t, rows)
	if string(a) != string(b) {
		t.Fatalf("repeated autoscale sweep diverged:\nfirst: %s\nagain: %s", a, b)
	}
}

// TestSLOSweepShardedOracle: two-class admission and weighted scheduling
// must reproduce across repeated serial sweeps.
func TestSLOSweepShardedOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep with profile runs")
	}
	firstRows, _, err := SLOSweepParallel(1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := SLOSweepParallel(1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustJSON(t, firstRows), mustJSON(t, rows)
	if string(a) != string(b) {
		t.Fatalf("repeated slo sweep diverged:\nfirst: %s\nagain: %s", a, b)
	}
}

// TestRunShardedOraclePipelineParallel drives the PP=2 engines — whose
// stage handoffs are events between the two halves of one instance —
// across four GPU pairs: the cluster must serve the whole workload, and a
// rerun from a fresh clone must reproduce every record.
func TestRunShardedOraclePipelineParallel(t *testing.T) {
	base := RoutingDatasets(1, true)[1] // small post-recommendation workload
	sc, err := ScenarioByName("L4")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *RunResult {
		t.Helper()
		res, err := Run(RunConfig{
			Kind: PipelineParallel, Scenario: sc, Dataset: base.Clone(),
			QPS: 8, Seed: 1, TotalGPUs: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	if first.Completed != len(base.Requests) || first.Latency.Mean <= 0 {
		t.Fatalf("pipeline-parallel pairs: completed %d of %d, mean %.3fs",
			first.Completed, len(base.Requests), first.Latency.Mean)
	}
	got := run()
	if len(got.Records) != len(first.Records) {
		t.Fatalf("rerun: %d records, want %d", len(got.Records), len(first.Records))
	}
	for i := range first.Records {
		a, b := first.Records[i], got.Records[i]
		if a.Req.ID != b.Req.ID || a.Arrival != b.Arrival || a.Start != b.Start || a.Finish != b.Finish {
			t.Fatalf("record %d diverged: first {id %d %v %v %v} rerun {id %d %v %v %v}",
				i, a.Req.ID, a.Arrival, a.Start, a.Finish, b.Req.ID, b.Arrival, b.Start, b.Finish)
		}
	}
	if sa, sb := mustJSON(t, first.Latency), mustJSON(t, got.Latency); string(sa) != string(sb) {
		t.Fatalf("latency summary diverged: %s vs %s", sa, sb)
	}
	if first.CacheHitRate != got.CacheHitRate {
		t.Fatalf("hit rate %v vs %v", got.CacheHitRate, first.CacheHitRate)
	}
}

// TestTracedRoutingRunShardedOracle: tracing through a ring small enough
// to drop spans must not perturb the run (results equal to the untraced
// run), and the recorder's ring invariant — dropped + held == emitted —
// must hold exactly.
func TestTracedRoutingRunShardedOracle(t *testing.T) {
	sc, err := ScenarioByName("L4")
	if err != nil {
		t.Fatal(err)
	}
	base := RoutingDatasets(1, true)
	rc := RoutingRunConfig{
		Policy: AffinityLoadPolicy, Scenario: sc, Dataset: base[0].Clone(),
		QPS: 12, Seed: 1, Instances: 4,
	}
	plain, err := RoutingRun(rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Dataset = base[0].Clone()
	traced, rec, err := TracedRoutingRun(rc, 256)
	if err != nil {
		t.Fatal(err)
	}
	if dropped, held, emitted := rec.Dropped(), rec.Len(), rec.TotalEmitted(); dropped == 0 || dropped+uint64(held) != emitted {
		t.Fatalf("ring accounting: dropped %d + held %d vs emitted %d (want drops)", dropped, held, emitted)
	}
	a, b := mustJSON(t, plain), mustJSON(t, traced)
	if string(a) != string(b) {
		t.Fatalf("tracing perturbed the run:\nplain:  %s\ntraced: %s", a, b)
	}
}
