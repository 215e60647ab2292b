package prefillonly

import (
	"testing"
)

func TestSimulationQuickstartFlow(t *testing.T) {
	s, err := NewSimulation(SimulationConfig{MaxInputLen: 4000})
	if err != nil {
		t.Fatal(err)
	}
	profile := "user profile: reads operating systems papers, follows databases and distributed systems, " +
		"clicked on twelve scheduling articles last month, skips celebrity news and sports. "
	s.SubmitText(0, 1, profile+"post: a paper about LLM serving. recommend? answer:", []string{"Yes", "No"})
	s.SubmitText(0.1, 1, profile+"post: a paper about gardening. recommend? answer:", []string{"Yes", "No"})
	s.SubmitText(0.2, 2, "credit history: on-time payments. approve? answer:", []string{"Approve", "Deny"})
	recs := s.Run()
	if len(recs) != 3 {
		t.Fatalf("completed %d, want 3", len(recs))
	}
	sum := SummarizeLatencies(recs)
	if sum.Count != 3 || sum.Mean <= 0 {
		t.Fatalf("summary = %+v", sum)
	}
	// The two user-1 prompts share a profile prefix.
	if s.CacheHitRate() <= 0 {
		t.Fatal("no cache hits on shared-prefix prompts")
	}
}

func TestSimulationAllEngines(t *testing.T) {
	for _, eng := range []EngineName{
		EnginePrefillOnly, EnginePagedAttention, EngineChunkedPrefill,
		EngineTensorParallel, EnginePipelineParallel,
	} {
		s, err := NewSimulation(SimulationConfig{Engine: eng, MaxInputLen: 4000})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		s.SubmitText(0, 1, "a short prompt to classify. answer:", nil)
		if recs := s.Run(); len(recs) != 1 {
			t.Fatalf("%s completed %d requests", eng, len(recs))
		}
	}
}

func TestSimulationRoutedCluster(t *testing.T) {
	for _, policy := range []string{"userhash", "leastloaded", "affinity"} {
		s, err := NewSimulation(SimulationConfig{GPUs: 4, MaxInputLen: 9000, RoutingPolicy: policy})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if s.Router() == nil {
			t.Fatalf("%s: no router", policy)
		}
		ds := NewSkewed(SkewedConfig{Users: 12, Requests: 48, ProfileMean: 2000,
			ProfileStd: 500, ProfileMin: 1000, ProfileMax: 3000, Seed: 2})
		if err := s.SubmitDataset(ds, 20, 1); err != nil {
			t.Fatal(err)
		}
		recs := s.Run()
		if len(recs) != 48 {
			t.Fatalf("%s completed %d, want 48", policy, len(recs))
		}
		if s.Rejected() != 0 {
			t.Fatalf("%s rejected %d without an admission bound", policy, s.Rejected())
		}
	}
	// Admission control: a tight bound on the same load sheds requests.
	s, err := NewSimulation(SimulationConfig{GPUs: 2, MaxInputLen: 9000,
		RoutingPolicy: "leastloaded", MaxBacklogSeconds: 2})
	if err != nil {
		t.Fatal(err)
	}
	ds := NewSkewed(SkewedConfig{Users: 12, Requests: 48, ProfileMean: 2000,
		ProfileStd: 500, ProfileMin: 1000, ProfileMax: 3000, Seed: 2})
	if err := s.SubmitDataset(ds, 200, 1); err != nil {
		t.Fatal(err)
	}
	recs := s.Run()
	if s.Rejected() == 0 {
		t.Fatal("tight admission bound rejected nothing at 200 qps")
	}
	if len(recs)+s.Rejected() != 48 {
		t.Fatalf("completed %d + rejected %d != 48", len(recs), s.Rejected())
	}
	// An admission bound without a routing policy is a config error.
	if _, err := NewSimulation(SimulationConfig{MaxBacklogSeconds: 1}); err == nil {
		t.Fatal("MaxBacklogSeconds without RoutingPolicy accepted")
	}
	if _, err := NewSimulation(SimulationConfig{RoutingPolicy: "bogus"}); err == nil {
		t.Fatal("unknown routing policy accepted")
	}
}

// TestSimulationAccountsEverySubmission checks the accounting identity
// Run enforces, completed + rejected == submitted, on the three fleet
// shapes the facade assembles: a first-appearance cluster of PP=2 engine
// pairs, a routed fleet whose admission bound sheds, and an elastic pool
// growing under a square-wave burst. A run whose counts disagree panics.
func TestSimulationAccountsEverySubmission(t *testing.T) {
	skewed := NewSkewed(SkewedConfig{Users: 16, Requests: 96, ProfileMean: 2500,
		ProfileStd: 500, ProfileMin: 1500, ProfileMax: 4000, Seed: 3})
	cases := []struct {
		name       string
		cfg        SimulationConfig
		submit     func(*Simulation) (int, error)
		wantReject bool
	}{
		{
			name: "cluster",
			cfg:  SimulationConfig{Engine: EnginePipelineParallel, GPUs: 8, MaxInputLen: 6000},
			submit: func(s *Simulation) (int, error) {
				ds := NewPostRecommendation(PostRecommendationConfig{Users: 6, PostsPerUser: 8, Seed: 5})
				return len(ds.Requests), s.SubmitDataset(ds, 10, 13)
			},
		},
		{
			name: "routed-admission",
			cfg:  SimulationConfig{GPUs: 4, MaxInputLen: 6000, RoutingPolicy: "affinity", MaxBacklogSeconds: 2},
			submit: func(s *Simulation) (int, error) {
				ds := skewed.Clone()
				return len(ds.Requests), s.SubmitDataset(ds, 200, 11)
			},
			wantReject: true,
		},
		{
			name: "autoscaled",
			cfg: SimulationConfig{GPUs: 4, MaxInputLen: 5000, RoutingPolicy: "affinity", MaxBacklogSeconds: 20,
				Autoscale: &AutoscaleConfig{MinInstances: 1, UpBacklogSeconds: 2}},
			submit: func(s *Simulation) (int, error) {
				ds := skewed.Clone()
				arrivals, err := AssignOpenLoopArrivals(ds, SquareWaveRate(1, 12, 30, 0.4), 12, 3)
				for _, a := range arrivals {
					s.SubmitAt(a.Time, a.Req)
				}
				return len(arrivals), err
			},
		},
	}
	for _, c := range cases {
		s, err := NewSimulation(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		n, err := c.submit(s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		recs := s.Run()
		if len(recs)+s.Rejected() != n || len(recs) == 0 {
			t.Fatalf("%s: completed %d + rejected %d != %d submitted", c.name, len(recs), s.Rejected(), n)
		}
		if c.wantReject != (s.Rejected() > 0) {
			t.Fatalf("%s: rejected %d, want rejections: %v", c.name, s.Rejected(), c.wantReject)
		}
		if ctl := s.Autoscaler(); ctl != nil && ctl.Stats().ScaleUps == 0 {
			t.Fatalf("%s: the burst did not grow the pool", c.name)
		}
		s.submitted++ // a request the run never accounted for
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Run accepted %d completed + %d rejected != %d submitted",
						c.name, len(recs), s.Rejected(), s.submitted)
				}
			}()
			s.Run()
		}()
	}
}

func TestSimulationDataset(t *testing.T) {
	s, err := NewSimulation(SimulationConfig{MaxInputLen: 18000})
	if err != nil {
		t.Fatal(err)
	}
	ds := NewPostRecommendation(PostRecommendationConfig{Users: 2, PostsPerUser: 5, Seed: 3})
	if err := s.SubmitDataset(ds, 5, 1); err != nil {
		t.Fatal(err)
	}
	recs := s.Run()
	if len(recs) != 10 {
		t.Fatalf("completed %d, want 10", len(recs))
	}
}

func TestSimulationConfigValidation(t *testing.T) {
	if _, err := NewSimulation(SimulationConfig{Engine: "warp-drive"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := NewSimulation(SimulationConfig{Engine: EngineTensorParallel, GPUs: 3}); err == nil {
		t.Error("odd GPU count for TP accepted")
	}
	if _, err := NewSimulation(SimulationConfig{GPUs: -2}); err == nil {
		t.Error("negative GPU count accepted")
	}
}

func TestCatalogs(t *testing.T) {
	if len(Models()) != 3 {
		t.Fatalf("models = %d", len(Models()))
	}
	if len(GPUs()) != 4 {
		t.Fatalf("gpus = %d", len(GPUs()))
	}
	if Llama31_8B().Hidden != 4096 || L4().MemoryBytes <= 0 {
		t.Fatal("preset accessors broken")
	}
}

func TestServerFacade(t *testing.T) {
	srv, err := NewServer(ServerConfig{MaxInputLen: 4000, Speedup: 1e7})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := srv.Submit("profile: likes databases. post: a B-tree paper. recommend? answer:", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Token == "" || res.SimLatency <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if srv.Handler() == nil {
		t.Fatal("nil handler")
	}
}

func TestServerChaosValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{MaxInputLen: 4000, ChaosCrashRate: 0.1}); err == nil {
		t.Error("chaos on a single-engine server accepted")
	}
	if _, err := NewServer(ServerConfig{MaxInputLen: 4000, Instances: 2, ChaosSeed: 7}); err == nil {
		t.Error("ChaosSeed without a chaos rate accepted")
	}
	srv, err := NewServer(ServerConfig{
		MaxInputLen: 4000, Speedup: 1e7, Instances: 2,
		ChaosSeed: 7, ChaosStragglerRate: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
}
