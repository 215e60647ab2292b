package prefillonly

// Time-series integration tests: the windowed collector must account for
// every request exactly, export byte-identically across repeated runs,
// and — the observability bargain — change nothing about the simulation
// it observes.

import (
	"bytes"
	"testing"
)

func timeseriesRoutedRun(t *testing.T, intervalSeconds float64) (*Simulation, []Record) {
	t.Helper()
	sim, err := NewSimulation(SimulationConfig{
		RoutingPolicy:     "affinity",
		MaxInputLen:       18000,
		TimeseriesSeconds: intervalSeconds,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := NewPostRecommendation(PostRecommendationConfig{Users: 4, PostsPerUser: 8, Seed: 21})
	if err := sim.SubmitDataset(ds, 8, 5); err != nil {
		t.Fatal(err)
	}
	return sim, sim.Run()
}

// TestTimeseriesDoesNotPerturbSimulation runs the same workload with and
// without the collector: latencies must be bit-identical. Aggregation
// must observe, not steer.
func TestTimeseriesDoesNotPerturbSimulation(t *testing.T) {
	_, plain := timeseriesRoutedRun(t, 0)
	_, collected := timeseriesRoutedRun(t, 1)
	if len(plain) != len(collected) {
		t.Fatalf("completion counts differ: %d vs %d", len(plain), len(collected))
	}
	for i := range plain {
		if plain[i].Latency() != collected[i].Latency() || plain[i].Req.ID != collected[i].Req.ID {
			t.Fatalf("record %d diverged under collection: %+v vs %+v", i, plain[i], collected[i])
		}
	}
}

// TestTimeseriesAccountsEveryRequest sums the windowed counters back up:
// arrivals and completions across all windows must equal the run's
// totals, and the last window must end at or before the clock.
func TestTimeseriesAccountsEveryRequest(t *testing.T) {
	sim, recs := timeseriesRoutedRun(t, 1)
	ts := sim.Timeseries()
	if ts == nil {
		t.Fatal("TimeseriesSeconds set but Timeseries() is nil")
	}
	exp := ts.Snapshot(sim.Now())
	if len(exp.Windows) == 0 {
		t.Fatal("no windows collected")
	}
	var arrivals, completions uint64
	nonEmpty := 0
	for i, w := range exp.Windows {
		if w.Index != int64(i) {
			t.Fatalf("window %d has index %d: rows must be contiguous from 0", i, w.Index)
		}
		if w.EndSeconds > sim.Now()+1e-9 {
			t.Fatalf("window %d ends at %g, past sim time %g", i, w.EndSeconds, sim.Now())
		}
		arrivals += w.Arrivals
		completions += w.Completions
		var classArr, classComp uint64
		for _, cw := range w.Classes {
			classArr += cw.Arrivals
			classComp += cw.Completions
		}
		if classArr != w.Arrivals || classComp != w.Completions {
			t.Fatalf("window %d: class slices (%d/%d) don't sum to totals (%d/%d)",
				i, classArr, classComp, w.Arrivals, w.Completions)
		}
		if w.Completions > 0 {
			nonEmpty++
		}
	}
	if completions != uint64(len(recs)) {
		t.Fatalf("windows account %d completions, run produced %d", completions, len(recs))
	}
	if arrivals != uint64(len(recs)) {
		t.Fatalf("windows account %d arrivals, run submitted %d", arrivals, len(recs))
	}
	if nonEmpty == 0 {
		t.Fatal("every window is empty")
	}
}

// TestTimeseriesShardByteIdentity renders the series of two identical
// collected runs: the JSON exports must be byte-identical, because the
// telemetry is a pure function of the simulated run. (The name dates from
// the serial-vs-sharded form of this check; the simulator now has one
// kernel.)
func TestTimeseriesShardByteIdentity(t *testing.T) {
	firstSim, firstRecs := timeseriesRoutedRun(t, 1)
	againSim, againRecs := timeseriesRoutedRun(t, 1)
	if len(firstRecs) != len(againRecs) {
		t.Fatalf("completion counts differ: %d vs %d", len(firstRecs), len(againRecs))
	}
	var first, again bytes.Buffer
	if err := firstSim.Timeseries().WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	if err := againSim.Timeseries().WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if first.Len() == 0 || !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Fatalf("time-series JSON differs between identical runs: %d vs %d bytes", first.Len(), again.Len())
	}
}
