package main

import (
	"fmt"
	"runtime"
	"time"

	prefillonly "repro"
)

// simWorkload is a workload of batch simulations, made of sub-workloads
// that share a shape and differ in seed.
type simWorkload interface {
	subWorkloads() int
	// pass runs every cell of sub-workload k once; tr (nil when
	// untraced) records spans.
	pass(k int, tr *tracer) (*simPass, error)
	// requests are sub-workload 0's requests, for the replays.
	requests() []*prefillonly.Request
}

type simBench struct {
	name string
	w    simWorkload
}

// timed runs whole cycles over the sub-workloads, so every sub-workload
// weighs the same in every run: one cycle always, and another while it is
// expected to end within the budget. Wall-clock figures are medians over
// passes; counts repeat exactly from cycle to cycle.
func (b *simBench) timed(budget time.Duration) (*result, error) {
	start := time.Now()
	n := b.w.subWorkloads()
	var passes []*simPass
	for {
		for k := 0; k < n; k++ {
			runtime.GC() // start each pass from the same heap, not the last pass's garbage
			p, err := b.w.pass(k, nil)
			if err != nil {
				return nil, err
			}
			passes = append(passes, p)
		}
		cycle := time.Since(start) / time.Duration(len(passes)/n)
		if time.Since(start)+cycle > budget+budget/10 {
			break
		}
	}
	res := &result{metrics: map[string]float64{}}
	var setups, rates []float64
	var offered, completed int
	var mallocs uint64
	for i, p := range passes {
		b.account(res, p, passes[i%n].digest, i, i < n)
		setups = append(setups, p.setup.Seconds())
		rates = append(rates, float64(p.offered)/p.run.Seconds())
		if i < n {
			offered += p.offered
			completed += p.completed
			mallocs += p.mallocs
		}
	}
	res.metrics["setup_s"] = median(setups)
	res.metrics["req_per_wall_s"] = median(rates)
	res.metrics["allocs_per_req"] = float64(mallocs) / float64(offered)
	res.metrics["peak_rss_mb"] = peakRSSMB()
	res.metrics["completed_ratio"] = float64(completed) / float64(offered)
	res.report = append(res.report, fmt.Sprintf("passes %d over %d sub-workloads", len(passes), n))
	return res, nil
}

// account adds one pass's counts and checks to res, and its per-cell
// counts to the report when asked. A pass must reproduce the digest of
// the first pass over the same sub-workload: the simulation is
// deterministic.
func (b *simBench) account(res *result, p *simPass, ref uint64, i int, report bool) {
	res.attempted += p.offered
	res.failed += p.failed
	res.problems = append(res.problems, p.problems...)
	if p.digest != ref {
		res.failed++
		res.problems = append(res.problems, fmt.Sprintf("pass %d: record digest %x differs from %x", i, p.digest, ref))
	}
	if report {
		for _, c := range p.cells {
			res.report = append(res.report, fmt.Sprintf("pass %d cell %s", i, c))
		}
	}
}

// traced runs sub-workload 0 untraced twice (the first warms the heap),
// then traced passes over the sub-workloads for the rest of the budget (at
// least one), with the CPU profile on during each call into the program.
// The traced pass over sub-workload 0 must reproduce the untraced digest:
// tracing from outside does not perturb the program.
func (b *simBench) traced(budget time.Duration, tr *tracer) (*result, error) {
	start := time.Now()
	var base *simPass
	for i := 0; i < 2; i++ {
		runtime.GC()
		var err error
		if base, err = b.w.pass(0, nil); err != nil {
			return nil, err
		}
	}
	n := b.w.subWorkloads()
	var passes []*simPass
	for len(passes) < 1 || (time.Since(start) < budget && len(passes) < n) {
		runtime.GC()
		p, err := b.w.pass(len(passes), tr)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}

	res := &result{metrics: map[string]float64{}}
	b.account(res, base, base.digest, 0, false)
	var jct, setups, runs, gcCycles, gcPause []float64
	var offered, completed int
	for i, p := range passes {
		ref := p.digest
		if i == 0 {
			ref = base.digest
		}
		b.account(res, p, ref, i+1, true)
		jct = append(jct, p.jct...)
		offered += p.offered
		completed += p.completed
		setups = append(setups, p.setup.Seconds())
		runs = append(runs, p.run.Seconds())
		gcCycles = append(gcCycles, float64(p.gcCycles))
		gcPause = append(gcPause, float64(p.gcPause)/float64(time.Millisecond))
	}
	m := res.metrics
	if err := addCPUShares(m, tr.profiles); err != nil {
		return nil, err
	}
	var err error
	m["trace.overhead_ratio"] = (passes[0].setup + passes[0].run).Seconds() / (base.setup + base.run).Seconds()
	m["setup.s"] = median(setups)
	m["run.s"] = median(runs)
	m["gc.cycles"] = median(gcCycles)
	m["gc.pause_ms"] = median(gcPause)
	m["modelled.jct_p50_s"] = percentile(jct, 50)
	if m["modelled.jct_p99_s"], err = tail(jct, 99, "modelled latency"); err != nil {
		return nil, err
	}
	m["modelled.shed_ratio"] = 1 - float64(completed)/float64(offered)

	l := passes[0].layers
	if l.lookupWeight > 0 {
		m["kvcache.hit_ratio"] = l.hitWeighted / l.lookupWeight
	}
	m["kvcache.inserted_blocks"] = float64(l.inserted)
	m["kvcache.evicted_blocks"] = float64(l.evicted)
	for reason, c := range l.rejects {
		m["router.rejected."+reason] = float64(c)
	}
	m["router.balance_ratio"] = median(l.balance)
	m["sched.queue_wait_p50_s"] = percentile(l.queueWait, 50)
	if m["sched.queue_wait_p99_s"], err = tail(l.queueWait, 99, "queue wait"); err != nil {
		return nil, err
	}
	m["engine.exec_p50_s"] = percentile(l.exec, 50)
	m["autoscale.scale_ups"] = float64(l.scaleUps)
	m["autoscale.cold_start_s"] = l.coldStart
	m["autoscale.gpu_s"] = l.gpuSeconds

	replay(tr, m, replayCorpusFromRequests(b.w.requests(), l.estimates))
	res.report = append(res.report, fmt.Sprintf("traced passes %d, modelled latency samples %d", len(passes), len(jct)))
	return res, nil
}

// addCPUShares attributes the CPU profiles to modules and adds each
// bucket's share to m.
func addCPUShares(m map[string]float64, profiles [][]byte) error {
	shares, samples, err := cpuShares(profiles)
	if err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("cpu profiles hold no samples")
	}
	for b, s := range shares {
		m[b+".cpu_share"] = s
	}
	return nil
}
