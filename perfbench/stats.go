package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
)

// tailCandidates are the percentiles the benchmark may report as a tail,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile is the reporting rule for timings: the highest candidate
// percentile that leaves at least ten samples beyond it. It returns 0 when
// n is too small for even the median to qualify.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place). It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// tail returns the p-th percentile of xs after checking that the sample
// supports it under tailPercentile's rule.
func tail(xs []float64, p float64, what string) (float64, error) {
	if got := tailPercentile(len(xs)); got < p {
		return 0, fmt.Errorf("%s: %d samples support p%g at most, not p%g", what, len(xs), got, p)
	}
	return percentile(xs, p), nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// digest folds a stream of numbers into an order-sensitive 64-bit FNV-1a
// hash: equal digests mean bit-identical records.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(vals ...float64) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		d.h.Write(buf[:]) // a hash.Hash never returns an error
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }
