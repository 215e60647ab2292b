package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	prefillonly "repro"
)

// simCell is one simulation: a config and its generated arrivals.
type simCell struct {
	name string
	cfg  prefillonly.SimulationConfig
	// arrivals are the open-loop arrivals; nil means closed loop, every
	// request in reqs offered at t=0.
	arrivals []prefillonly.Arrival
	reqs     []*prefillonly.Request
	// measured cells feed the modelled-latency metrics and layer counts.
	measured bool
}

// simPass is the outcome of one pass over a sim workload's cells.
type simPass struct {
	setup, run         time.Duration // NewSimulation; SubmitAt+Run
	offered, completed int
	failed             int
	problems           []string
	mallocs            uint64        // during runs
	gcCycles           uint32        // during runs
	gcPause            time.Duration // during runs
	jct                []float64     // modelled latency, measured cells
	digest             uint64
	cells              []string // per-cell counts, for the report
	layers             simLayers
}

// simLayers gathers per-layer counts from the program's public getters,
// over the measured cells.
type simLayers struct {
	hitWeighted, lookupWeight float64 // token-weighted cache hit rate
	inserted, evicted         int64
	rejects                   map[string]int64
	balance                   []float64
	queueWait, exec           []float64
	scaleUps                  int
	coldStart, gpuSeconds     float64
	estimates                 [][2]int // (length, cached) per completed request
}

// setupReps is how many times each cell's simulation is built.
const setupReps = 5

// runCell builds the simulation, offers its arrivals, drains it and checks
// the outcome, adding everything to p.
func runCell(c simCell, p *simPass, d *digest, tr *tracer, parent int) ([]prefillonly.Record, error) {
	if err := tr.startProfile(); err != nil {
		return nil, err
	}
	// Set-up is cheap next to a run, so it is repeated and its median
	// kept; the last simulation built serves the arrivals.
	sp := tr.begin("setup", parent)
	var s *prefillonly.Simulation
	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		var err error
		s, err = prefillonly.NewSimulation(c.cfg)
		setups[i] = time.Since(t0).Seconds()
		if err != nil {
			tr.end(sp)
			tr.stopProfile()
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
	}
	setup := time.Duration(median(setups) * float64(time.Second))
	tr.end(sp)
	offered := c.reqs
	if c.arrivals != nil {
		offered = make([]*prefillonly.Request, len(c.arrivals))
		for i, a := range c.arrivals {
			offered[i] = a.Req
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp = tr.begin("run", parent)
	t1 := time.Now()
	if c.arrivals == nil {
		for _, r := range c.reqs {
			s.SubmitAt(0, r)
		}
	} else {
		for _, a := range c.arrivals {
			s.SubmitAt(a.Time, a.Req)
		}
	}
	recs := s.Run()
	run := time.Since(t1)
	tr.end(sp)
	tr.stopProfile()
	runtime.ReadMemStats(&m1)

	p.setup += setup
	p.run += run
	p.mallocs += m1.Mallocs - m0.Mallocs
	p.gcCycles += m1.NumGC - m0.NumGC
	p.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	p.offered += len(offered)
	p.completed += len(recs)
	lat := prefillonly.SummarizeLatencies(recs)
	p.cells = append(p.cells, fmt.Sprintf("%s offered=%d completed=%d rejected=%d mean_jct=%.3f p99_jct=%.3f",
		c.name, len(offered), len(recs), s.Rejected(), lat.Mean, lat.P99))
	checkRecords(c.name, offered, recs, s.Rejected(), p)
	for _, r := range recs {
		d.add(float64(r.Req.ID), r.Arrival, r.Start, r.Finish, float64(r.CachedTokens))
	}
	d.add(float64(s.Rejected()))
	if c.measured {
		collectLayers(s, recs, &p.layers)
		for _, r := range recs {
			p.jct = append(p.jct, r.Latency())
		}
	}
	return recs, nil
}

// checkRecords verifies the accounting identity (completed + rejected ==
// offered, each offered request completing at most once) and every
// record's invariants, counting each violation as a failed operation.
func checkRecords(cell string, offered []*prefillonly.Request, recs []prefillonly.Record, rejected int, p *simPass) {
	fail := func(format string, args ...any) {
		p.failed++
		if len(p.problems) < 10 {
			p.problems = append(p.problems, cell+": "+fmt.Sprintf(format, args...))
		}
	}
	if len(recs)+rejected != len(offered) {
		fail("%d completed + %d rejected != %d offered", len(recs), rejected, len(offered))
	}
	pending := make(map[int64]bool, len(offered))
	for _, r := range offered {
		pending[r.ID] = true
	}
	for _, r := range recs {
		switch {
		case !pending[r.Req.ID]:
			fail("request %d completed twice or was never offered", r.Req.ID)
		case !(r.Arrival <= r.Start && r.Start <= r.Finish):
			fail("request %d: arrival %g, start %g, finish %g out of order", r.Req.ID, r.Arrival, r.Start, r.Finish)
		case r.CachedTokens < 0 || r.CachedTokens > r.Req.Len():
			fail("request %d: %d cached of %d tokens", r.Req.ID, r.CachedTokens, r.Req.Len())
		}
		delete(pending, r.Req.ID)
	}
}

// collectLayers reads the per-layer counts of one drained simulation
// through its public getters.
func collectLayers(s *prefillonly.Simulation, recs []prefillonly.Record, l *simLayers) {
	var tokens float64
	for _, r := range recs {
		tokens += float64(r.Req.Len())
		l.queueWait = append(l.queueWait, r.QueueTime())
		l.exec = append(l.exec, r.ExecTime())
		l.estimates = append(l.estimates, [2]int{r.Req.Len(), r.CachedTokens})
	}
	l.hitWeighted += s.CacheHitRate() * tokens
	l.lookupWeight += tokens
	rt := s.Router()
	if rt == nil {
		return
	}
	// Instances still in the pool at drain; an autoscaled instance that
	// was released earlier is not counted.
	for _, e := range rt.Instances() {
		if c := e.Cache(); c != nil {
			st := c.Stats()
			l.inserted += st.InsertedBlocks
			l.evicted += st.EvictedBlocks
		}
	}
	if l.rejects == nil {
		l.rejects = map[string]int64{}
	}
	for _, byClass := range rt.Admission().ReasonSnapshot() {
		for _, byReason := range byClass {
			for reason, n := range byReason {
				l.rejects[reason] += n
			}
		}
	}
	var routed []int64
	for _, ld := range rt.Loads() {
		routed = append(routed, ld.RoutedTokens)
	}
	l.balance = append(l.balance, balanceRatio(routed))
	if ctl := s.Autoscaler(); ctl != nil {
		st := ctl.Stats()
		l.scaleUps += st.ScaleUps
		l.coldStart += float64(st.ScaleUps-st.Revives) * st.ColdStartSeconds
		l.gpuSeconds += ctl.GPUSeconds(s.Now())
	}
}

// balanceRatio is the most over the fewest tokens routed to any instance
// that received some: 1 is a perfect balance, 0 means none was routed.
func balanceRatio(routed []int64) float64 {
	lo, hi := int64(math.MaxInt64), int64(0)
	for _, n := range routed {
		if n > 0 {
			lo, hi = min(lo, n), max(hi, n)
		}
	}
	if hi == 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}

// busyThroughput is completions per simulated second from the first
// arrival to the last finish.
func busyThroughput(recs []prefillonly.Record) float64 {
	first, last := math.Inf(1), 0.0
	for _, r := range recs {
		first, last = math.Min(first, r.Arrival), math.Max(last, r.Finish)
	}
	if len(recs) == 0 || last <= first {
		return 0
	}
	return float64(len(recs)) / (last - first)
}

// profileLen is the profile-run length the experiments use for a dataset:
// its longest request rounded up to the next thousand tokens.
func profileLen(d *prefillonly.Dataset) int { return (d.MaxLen/1000 + 1) * 1000 }

// subSeed is the seed of a workload's k-th sub-workload; sub-workload 0
// uses the run's seed itself.
func subSeed(seed int64, k int) int64 { return seed + int64(k)*1_000_003 }

// sweepRouting is the full-size routing sweep: per dataset, one
// closed-loop saturation cell on the default two-GPU fleet, then each
// routing policy on four L4 instances at 0.9x the scaled saturation rate.
// Every cell runs on a clone of one base dataset. Sub-workload k is the
// whole sweep at sub-seed k.
type sweepRouting struct{ seed int64 }

var sweepPolicies = []string{"userhash", "leastloaded", "affinity"}

// sweepSubWorkloads is how many sweeps at distinct seeds one run covers:
// near saturation, modelled queueing and with it the per-request cost
// swing widely from seed to seed, and averaging over eight sweeps keeps a
// run's figures steady.
const sweepSubWorkloads = 8

func (w *sweepRouting) subWorkloads() int { return sweepSubWorkloads }

func (w *sweepRouting) datasets(k int) []*prefillonly.Dataset {
	seed := subSeed(w.seed, k)
	return []*prefillonly.Dataset{
		prefillonly.NewSkewed(prefillonly.SkewedConfig{Seed: seed}),
		prefillonly.NewPostRecommendation(prefillonly.PostRecommendationConfig{Seed: seed}),
	}
}

func (w *sweepRouting) requests() []*prefillonly.Request {
	var out []*prefillonly.Request
	for _, d := range w.datasets(0) {
		out = append(out, d.Requests...)
	}
	return out
}

func (w *sweepRouting) pass(k int, tr *tracer) (*simPass, error) {
	p := &simPass{}
	d := newDigest()
	root := tr.begin("pass", 0)
	defer tr.end(root)
	for _, base := range w.datasets(k) {
		const instances = 4
		profLen := profileLen(base)
		sat, err := runCell(simCell{
			name: base.Name + "/saturation",
			cfg:  prefillonly.SimulationConfig{MaxInputLen: profLen},
			reqs: base.Clone().Requests,
		}, p, d, tr, root)
		if err != nil {
			return nil, err
		}
		qps := busyThroughput(sat) * instances / 2 * 0.9
		for _, pol := range sweepPolicies {
			ds := base.Clone()
			arr, err := prefillonly.AssignPoissonArrivals(ds, qps, subSeed(w.seed, k))
			if err != nil {
				return nil, err
			}
			if _, err := runCell(simCell{
				name: base.Name + "/" + pol,
				cfg: prefillonly.SimulationConfig{
					GPUs: instances, RoutingPolicy: pol, MaxInputLen: profLen,
				},
				arrivals: arr,
				measured: true,
			}, p, d, tr, root); err != nil {
				return nil, err
			}
		}
	}
	p.digest = d.sum()
	return p, nil
}

// Class-mix sizing. The rates are fixed multiples of the per-instance
// saturation throughput of this dataset shape on the default two-L4
// cluster (about 1.1 requests/second, measured once), so that every seed
// offers the same schedule: the trough keeps about one instance busy and
// the peak overruns the full four-instance fleet by half.
const (
	classMixInteractive    = 2048
	classMixSatPerInstance = 1.1 // requests/second
	classMixBase           = 0.7 * classMixSatPerInstance
	classMixPeak           = 6.0 * classMixSatPerInstance
	classMixDuty           = 0.35
	classMixBacklog        = 12.0
	classMixBatchBudget    = 0.35 * classMixBacklog
	classMixBatchWeight    = 4.0
	// classMixSubWorkloads is how many class-mix simulations at distinct
	// seeds one run covers, for the same reason as sweepSubWorkloads.
	classMixSubWorkloads = 24
)

// classMixElastic is one simulation of the two-class workload under a
// square-wave open-loop schedule, on an autoscaled affinity-routed fleet
// of one to four instances with per-class admission and scheduling.
// Sub-workload k is that simulation at sub-seed k.
type classMixElastic struct{ seed int64 }

func (w *classMixElastic) subWorkloads() int { return classMixSubWorkloads }

func (w *classMixElastic) dataset(k int) *prefillonly.Dataset {
	return prefillonly.NewClassMix(prefillonly.ClassMixConfig{
		Interactive: prefillonly.SkewedConfig{Requests: classMixInteractive},
		Seed:        subSeed(w.seed, k),
	})
}

func (w *classMixElastic) requests() []*prefillonly.Request { return w.dataset(0).Requests }

func (w *classMixElastic) pass(k int, tr *tracer) (*simPass, error) {
	p := &simPass{}
	d := newDigest()
	root := tr.begin("pass", 0)
	defer tr.end(root)
	ds := w.dataset(k)
	avg := classMixDuty*classMixPeak + (1-classMixDuty)*classMixBase
	period := float64(len(ds.Requests)) / avg / 3
	rate := prefillonly.SquareWaveRate(classMixBase, classMixPeak, period, classMixDuty)
	arr, err := prefillonly.AssignOpenLoopArrivals(ds, rate, classMixPeak, subSeed(w.seed, k))
	if err != nil {
		return nil, err
	}
	if _, err := runCell(simCell{
		name: ds.Name,
		cfg: prefillonly.SimulationConfig{
			GPUs:                4,
			MaxInputLen:         profileLen(ds),
			RoutingPolicy:       "affinity",
			MaxBacklogSeconds:   classMixBacklog,
			ClassBacklogSeconds: map[prefillonly.Class]float64{prefillonly.ClassBatch: classMixBatchBudget},
			ClassWeights:        map[prefillonly.Class]float64{prefillonly.ClassBatch: classMixBatchWeight},
			Autoscale:           &prefillonly.AutoscaleConfig{MinInstances: 1, MaxInstances: 4},
		},
		arrivals: arr,
		measured: true,
	}, p, d, tr, root); err != nil {
		return nil, err
	}
	p.digest = d.sum()
	return p, nil
}
