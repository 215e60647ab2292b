package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/sched"
)

// Extra token-stream kinds for the skewed dataset, disjoint from the
// Table-1 kinds so the two populations never share prefixes.
const (
	kindSkewProfile = iota + 16
	kindSkewPost
)

// SkewedConfig parameterizes the Zipf user-popularity dataset: per-user
// request counts follow a Zipf law (the rank-r user issues requests with
// probability ∝ 1/r^Exponent), so a few hot users dominate traffic while
// the long tail appears once or twice. Requests look like post
// recommendation — a per-user profile prefix plus a fresh post suffix —
// so hot users are exactly the ones whose prefixes reward cache affinity,
// and load-blind routing piles their traffic on one instance. Zero values
// take the defaults below.
type SkewedConfig struct {
	Users       int     // user population (default 64)
	Requests    int     // total requests drawn (default 512)
	Exponent    float64 // Zipf exponent, must be > 1 (default 1.4)
	ProfileMean float64 // default 8000
	ProfileStd  float64 // default 2000
	ProfileMin  int     // default 4000
	ProfileMax  int     // default 12000
	PostLen     int     // default 150
	Seed        int64
}

func (c *SkewedConfig) defaults() {
	if c.Users == 0 {
		c.Users = 64
	}
	if c.Requests == 0 {
		c.Requests = 512
	}
	if c.Exponent == 0 {
		c.Exponent = 1.4
	}
	if c.ProfileMean == 0 {
		c.ProfileMean = 8000
	}
	if c.ProfileStd == 0 {
		c.ProfileStd = 2000
	}
	if c.ProfileMin == 0 {
		c.ProfileMin = 4000
	}
	if c.ProfileMax == 0 {
		c.ProfileMax = 12000
	}
	if c.PostLen == 0 {
		c.PostLen = 150
	}
}

// Skewed generates the Zipf-skewed dataset. Dataset.Users reports the
// population size (distinct users actually drawn may be fewer), and
// Dataset.RequestsPerUser reports the mean request count, which
// AssignPoissonArrivals uses as the burst size approximation. A
// non-zero Exponent <= 1 panics: rand.NewZipf is undefined there, and a
// silent fallback would change the workload's shape.
func Skewed(cfg SkewedConfig) *Dataset {
	cfg.defaults()
	if cfg.Exponent <= 1 {
		panic(fmt.Sprintf("workload: Skewed Exponent must be > 1, got %g", cfg.Exponent))
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5851f42d4c957f2d))
	zipf := rand.NewZipf(rng, cfg.Exponent, 1, uint64(cfg.Users-1))
	template := make([]uint64, templateTokens)
	tokenStream(template, kindTemplate, 0, 0)

	perUser := cfg.Requests / cfg.Users
	if perUser < 1 {
		perUser = 1
	}
	d := &Dataset{
		Name:            "zipf-skewed",
		Users:           cfg.Users,
		RequestsPerUser: perUser,
	}
	profiles := make(map[int][]uint64, cfg.Users)
	postSeq := make(map[int]int, cfg.Users)
	for id := int64(1); id <= int64(cfg.Requests); id++ {
		u := int(zipf.Uint64())
		profile, ok := profiles[u]
		if !ok {
			plen := int(rng.NormFloat64()*cfg.ProfileStd + cfg.ProfileMean)
			if plen < cfg.ProfileMin {
				plen = cfg.ProfileMin
			}
			if plen > cfg.ProfileMax {
				plen = cfg.ProfileMax
			}
			profile = make([]uint64, plen)
			tokenStream(profile, kindSkewProfile, u, 0)
			profiles[u] = profile
		}
		p := postSeq[u]
		postSeq[u] = p + 1
		post := make([]uint64, cfg.PostLen)
		tokenStream(post, kindSkewPost, u, p)
		toks := make([]uint64, 0, templateTokens+len(profile)+cfg.PostLen)
		toks = append(toks, template...)
		toks = append(toks, profile...)
		toks = append(toks, post...)
		r := sched.NewRequest(sched.Request{
			ID:            id,
			UserID:        u,
			Tokens:        toks,
			AllowedTokens: []string{"Yes", "No"},
		})
		d.Requests = append(d.Requests, r)
		if r.Len() > d.MaxLen {
			d.MaxLen = r.Len()
		}
	}
	return d
}
