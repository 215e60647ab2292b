package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/sched"
)

// Token-stream kind for batch documents, disjoint from every other
// population so batch jobs never share prefixes with interactive traffic
// (beyond the universal template).
const kindBatchDoc = 32

// batchUserBase offsets batch user IDs past any plausible interactive
// population so the two tenants never collide in routing tables or
// prefix-affinity maps.
const batchUserBase = 1 << 20

// ClassMixConfig parameterizes the multi-tenant SLO workload: Zipf-skewed
// interactive traffic (the post-recommendation shape hot users make) mixed
// with throughput-oriented batch jobs — long, one-shot documents with no
// prefix reuse beyond the shared template, the shape offline scoring
// pipelines make. Zero values take the defaults noted below.
type ClassMixConfig struct {
	// Interactive shapes the latency-sensitive population (defaults are
	// SkewedConfig's; its Seed is overridden by this config's Seed).
	Interactive SkewedConfig
	// BatchFraction is the fraction of total requests that are batch jobs
	// (default 0.25).
	BatchFraction float64
	// BatchUsers is the batch tenant population (default 8).
	BatchUsers int
	// BatchLenMin and BatchLenMax bound the batch document length in
	// tokens (defaults 6000 and 12000).
	BatchLenMin, BatchLenMax int
	Seed                     int64
}

func (c *ClassMixConfig) defaults() {
	c.Interactive.defaults()
	if c.BatchFraction == 0 {
		c.BatchFraction = 0.25
	}
	if c.BatchUsers == 0 {
		c.BatchUsers = 8
	}
	if c.BatchLenMin == 0 {
		c.BatchLenMin = 6000
	}
	if c.BatchLenMax == 0 {
		c.BatchLenMax = 12000
	}
}

// ClassMix generates the two-class dataset: interactive requests from the
// Zipf user-popularity generator, batch documents drawn uniformly over the
// batch population, shuffled together deterministically so open-loop
// arrival assignment (AssignOpenLoopArrivals) interleaves the tenants the
// way production traffic does. Request IDs are reassigned sequentially
// after the shuffle; each request's Class field is set.
func ClassMix(cfg ClassMixConfig) *Dataset {
	cfg.defaults()
	if cfg.BatchFraction < 0 || cfg.BatchFraction >= 1 {
		panic(fmt.Sprintf("workload: BatchFraction must be in [0,1), got %g", cfg.BatchFraction))
	}
	if cfg.BatchLenMax < cfg.BatchLenMin {
		panic(fmt.Sprintf("workload: BatchLenMax %d < BatchLenMin %d", cfg.BatchLenMax, cfg.BatchLenMin))
	}

	icfg := cfg.Interactive
	icfg.Seed = cfg.Seed ^ 0x1f3779b97f4a7c15
	inter := Skewed(icfg)
	for _, r := range inter.Requests {
		r.Class = sched.ClassInteractive
	}

	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x2545f4914f6cdd1d))
	template := make([]uint64, templateTokens)
	tokenStream(template, kindTemplate, 0, 0)
	nBatch := int(cfg.BatchFraction / (1 - cfg.BatchFraction) * float64(len(inter.Requests)))
	batch := make([]*sched.Request, 0, nBatch)
	docSeq := make(map[int]int, cfg.BatchUsers)
	for i := 0; i < nBatch; i++ {
		u := rng.Intn(cfg.BatchUsers)
		dlen := cfg.BatchLenMin + rng.Intn(cfg.BatchLenMax-cfg.BatchLenMin+1)
		doc := make([]uint64, dlen)
		tokenStream(doc, kindBatchDoc, u, docSeq[u])
		docSeq[u]++
		toks := make([]uint64, 0, templateTokens+dlen)
		toks = append(toks, template...)
		toks = append(toks, doc...)
		batch = append(batch, sched.NewRequest(sched.Request{
			UserID:        batchUserBase + u,
			Tokens:        toks,
			Class:         sched.ClassBatch,
			AllowedTokens: []string{"Yes", "No"},
		}))
	}

	reqs := append(append([]*sched.Request(nil), inter.Requests...), batch...)
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	d := &Dataset{
		Name:            "class-mix",
		Users:           inter.Users + cfg.BatchUsers,
		RequestsPerUser: inter.RequestsPerUser,
	}
	for i, r := range reqs {
		r.ID = int64(i + 1)
		d.Requests = append(d.Requests, r)
		if r.Len() > d.MaxLen {
			d.MaxLen = r.Len()
		}
	}
	return d
}

// ClassCounts tallies a dataset's requests per SLO class.
func ClassCounts(d *Dataset) map[sched.Class]int {
	out := make(map[sched.Class]int)
	for _, r := range d.Requests {
		out[r.Class]++
	}
	return out
}
