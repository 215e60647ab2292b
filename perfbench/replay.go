package main

import (
	"encoding/json"
	"strconv"
	"strings"
	"time"

	prefillonly "repro"
	"repro/internal/graph"
	"repro/internal/kvcache"
	"repro/internal/server"
	"repro/internal/tokenizer"
)

// replayCorpus is a sample of one workload's inputs, fed to pure public
// functions of single layers to time them in isolation.
type replayCorpus struct {
	tokens    [][]uint64
	texts     []string
	bodies    [][]byte
	estimates [][2]int // (length, cached tokens) pairs
}

// Replay sample sizes: enough for stable per-call figures, small enough
// that the replays take well under a second.
const (
	replayRequests  = 64
	replayEstimates = 4096
	replayBlock     = 16 // the engines' prefix-cache block size
)

var replayAllowed = []string{"Yes", "No"}

// sink keeps replayed results live so the compiler cannot drop the calls.
var sink int

// replayCorpusFromRequests samples a sim workload's requests. The sims
// carry token IDs, not text, so the text replays use each request's tokens
// rendered as words of the serving workload's vocabulary.
func replayCorpusFromRequests(reqs []*prefillonly.Request, estimates [][2]int) replayCorpus {
	var c replayCorpus
	for _, r := range reqs[:min(len(reqs), replayRequests)] {
		words := make([]string, len(r.Tokens))
		for i, t := range r.Tokens {
			words[i] = vocabulary[t%uint64(len(vocabulary))]
		}
		text := strings.Join(words, " ")
		c.tokens = append(c.tokens, r.Tokens)
		c.texts = append(c.texts, text)
		c.bodies = append(c.bodies, completionBody("u"+strconv.Itoa(r.UserID), text))
	}
	c.estimates = estimates[:min(len(estimates), replayEstimates)]
	return c
}

// completionBody is the JSON body of one POST /v1/completions.
func completionBody(user, prompt string) []byte {
	b, err := json.Marshal(server.CompletionRequest{
		Model: "bench", Prompt: prompt, MaxTokens: 1, AllowedTokens: replayAllowed, User: user,
	})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return b
}

// replay times each layer function on the corpus and stores the per-unit
// figures in m.
func replay(tr *tracer, m map[string]float64, c replayCorpus) {
	m["hash.ns_per_token"] = timeReplay(tr, "replay.hash", func() int {
		n := 0
		for _, t := range c.tokens {
			sink += len(kvcache.BlockHashes(t, replayBlock))
			n += len(t)
		}
		return n
	})
	tok := tokenizer.New()
	m["tokenizer.ns_per_token"] = timeReplay(tr, "replay.tokenizer", func() int {
		n := 0
		for _, s := range c.texts {
			n += len(tok.Encode(s))
		}
		return n
	})
	m["server.decode_us"] = timeReplay(tr, "replay.decode", func() int {
		for _, b := range c.bodies {
			var req server.CompletionRequest
			if err := json.Unmarshal(b, &req); err == nil {
				sink += len(req.Prompt)
			}
		}
		return len(c.bodies)
	}) / 1e3
	m["server.score_ns"] = timeReplay(tr, "replay.score", func() int {
		for _, t := range c.tokens {
			sink += len(server.Score(t, replayAllowed))
		}
		return len(c.tokens)
	})
	ex := graph.New(prefillonly.Llama31_8B(), prefillonly.L4())
	opts := graph.HybridOptions(graph.DefaultChunkSize)
	m["graph.estimate_ns"] = timeReplay(tr, "replay.estimate", func() int {
		for _, e := range c.estimates {
			if s, err := ex.EstimateSeconds(graph.PassSpec{Total: e[0], Cached: e[1]}, opts); err == nil && s > 0 {
				sink++
			}
		}
		return len(c.estimates)
	})
}

// timeReplay runs f (one sweep over the corpus, returning the units it
// processed) repeatedly in five slices of about 20 ms and returns the
// median nanoseconds per unit.
func timeReplay(tr *tracer, name string, f func() int) float64 {
	sp := tr.begin(name, 0)
	defer tr.end(sp)
	per := make([]float64, 5)
	for i := range per {
		units := 0
		t0 := time.Now()
		for time.Since(t0) < 20*time.Millisecond {
			u := f()
			if u == 0 {
				return 0
			}
			units += u
		}
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(units)
	}
	return median(per)
}
