package server

import (
	"math"
	"sort"

	"repro/internal/tokenizer"
)

// Score produces the constrained output distribution for a prompt: a
// softmax over pseudo-logits derived deterministically from the prompt
// tokens and each allowed token. The engine's performance never depends on
// logit values (a prefill-only request's cost is its one forward pass,
// whatever token it emits), but applications need stable,
// prompt-sensitive scores — the same prompt always yields the same
// P(Yes)/P(No), and the probabilities sum to 1 (§2.3).
func Score(prompt []uint64, allowed []string) map[string]float64 {
	if len(allowed) == 0 {
		return nil
	}
	// Fold the prompt into a context hash.
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	for _, t := range prompt {
		h ^= t
		h *= prime
	}
	// Deterministic order for reproducible float accumulation.
	opts := append([]string(nil), allowed...)
	sort.Strings(opts)
	logits := make([]float64, len(opts))
	maxLogit := math.Inf(-1)
	for i, opt := range opts {
		x := h ^ tokenizer.TokenID(opt)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		// Map to a logit in [-3, 3].
		logits[i] = float64(x%6000)/1000 - 3
		if logits[i] > maxLogit {
			maxLogit = logits[i]
		}
	}
	var sum float64
	exps := make([]float64, len(opts))
	for i, l := range logits {
		exps[i] = math.Exp(l - maxLogit)
		sum += exps[i]
	}
	out := make(map[string]float64, len(opts))
	for i, opt := range opts {
		out[opt] = exps[i] / sum
	}
	return out
}

// argmax returns the token with the highest score ("" for no scores).
func argmax(scores map[string]float64) string {
	best, bestP := "", -1.0
	for tok, p := range scores {
		if p > bestP {
			best, bestP = tok, p
		}
	}
	return best
}
