package prefillonly

import (
	"bytes"
	"testing"

	"repro/internal/telemetrytest"
)

// TestSimulationTelemetryGolden pins instrumented simulations' exported
// time series and sampled trace gauges byte for byte: the two-class
// workload on a square wave, served by an affinity-routed fleet with
// per-class admission budgets and scheduling weights, fixed or elastic.
func TestSimulationTelemetryGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(*SimulationConfig)
	}{
		{"classmix-fixed-timeseries", func(c *SimulationConfig) { c.TimeseriesSeconds = 2 }},
		{"classmix-fixed-trace", func(c *SimulationConfig) { c.TraceSpans = -1 }},
		{"classmix-autoscaled", func(c *SimulationConfig) {
			c.Autoscale = &AutoscaleConfig{MinInstances: 1, MaxInstances: 4}
			c.TraceSpans, c.TimeseriesSeconds = -1, 2
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := SimulationConfig{
				GPUs:                4,
				MaxInputLen:         9000,
				RoutingPolicy:       "affinity",
				MaxBacklogSeconds:   12,
				ClassBacklogSeconds: map[Class]float64{ClassBatch: 4.2},
				ClassWeights:        map[Class]float64{ClassBatch: 4},
			}
			c.cfg(&cfg)
			s := classMixTelemetryRun(t, cfg)
			if ts := s.Timeseries(); ts != nil {
				var buf bytes.Buffer
				if err := ts.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				telemetrytest.Check(t, c.name+".json", buf.Bytes())
			}
			if rec := s.Trace(); rec != nil {
				telemetrytest.Check(t, c.name+"_gauges.txt", telemetrytest.GaugeLines(t, rec))
			}
		})
	}
}

// TestObserversDoNotPerturbAutoscaledRun runs the elastic class-mix fleet
// with and without both periodic observers (the trace sampler and the
// time-series window ticker): records, sheds, controller activity and
// GPU-seconds must be bit-identical, and the instrumented run must drain.
func TestObserversDoNotPerturbAutoscaledRun(t *testing.T) {
	run := func(observed bool) *Simulation {
		cfg := SimulationConfig{
			GPUs: 4, MaxInputLen: 9000, RoutingPolicy: "affinity", MaxBacklogSeconds: 12,
			ClassBacklogSeconds: map[Class]float64{ClassBatch: 4.2},
			ClassWeights:        map[Class]float64{ClassBatch: 4},
			Autoscale:           &AutoscaleConfig{MinInstances: 1, MaxInstances: 4},
		}
		if observed {
			cfg.TraceSpans, cfg.TimeseriesSeconds = -1, 2
		}
		return classMixTelemetryRun(t, cfg)
	}
	plain, observed := run(false), run(true)
	a, b := plain.Records(), observed.Records()
	if len(a) != len(b) || plain.Rejected() != observed.Rejected() {
		t.Fatalf("observed run completed %d / shed %d, plain %d / %d",
			len(b), observed.Rejected(), len(a), plain.Rejected())
	}
	for i := range a {
		if a[i].Req.ID != b[i].Req.ID || a[i].Latency() != b[i].Latency() {
			t.Fatalf("record %d diverged under observation: %+v vs %+v", i, a[i], b[i])
		}
	}
	end := a[len(a)-1].Finish
	pc, oc := plain.Autoscaler(), observed.Autoscaler()
	if pc.Stats() != oc.Stats() || pc.GPUSeconds(end) != oc.GPUSeconds(end) {
		t.Fatalf("controller diverged under observation: %+v, %g GPU-s vs %+v, %g GPU-s",
			pc.Stats(), pc.GPUSeconds(end), oc.Stats(), oc.GPUSeconds(end))
	}
}

// classMixTelemetryRun serves a small two-class square-wave workload
// through a simulation built from cfg.
func classMixTelemetryRun(t *testing.T, cfg SimulationConfig) *Simulation {
	t.Helper()
	ds := NewClassMix(ClassMixConfig{
		Interactive: SkewedConfig{
			Users: 24, Requests: 120, ProfileMean: 3000, ProfileStd: 800,
			ProfileMin: 1500, ProfileMax: 5000,
		},
		BatchFraction: 0.25, BatchUsers: 6, BatchLenMin: 4000, BatchLenMax: 8000,
		Seed: 5,
	})
	const base, peak, duty = 0.8, 6.0, 0.35
	period := float64(len(ds.Requests)) / (duty*peak + (1-duty)*base) / 3
	arrivals, err := AssignOpenLoopArrivals(ds, SquareWaveRate(base, peak, period, duty), peak, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals {
		s.SubmitAt(a.Time, a.Req)
	}
	if recs := s.Run(); len(recs) == 0 {
		t.Fatal("nothing completed")
	}
	return s
}
