package kvcache

import (
	"math/rand"
	"slices"
	"testing"
)

const hashBT = 16

// assertDistinct fails when any two hashes are equal or any is 0.
func assertDistinct(t *testing.T, hashes []uint64) {
	t.Helper()
	sorted := slices.Clone(hashes)
	slices.Sort(sorted)
	for i, h := range sorted {
		if h == 0 {
			t.Fatal("BlockHashes returned the reserved parent value 0")
		}
		if i > 0 && h == sorted[i-1] {
			t.Fatalf("hash collision on %#x among %d blocks", h, len(sorted))
		}
	}
}

// TestBlockHashesNoCollisions hashes 2^20 single blocks of small-integer
// tokens (every 10-digit base-4 pattern) plus a chain with every
// single-token flip, and requires every distinct (parent, content) block
// to get a distinct, non-zero hash.
func TestBlockHashesNoCollisions(t *testing.T) {
	const n = 1 << 20
	all := make([]uint64, 0, n+1<<17)
	toks := make([]uint64, hashBT)
	for j := 0; j < n; j++ {
		for k := range toks {
			toks[k] = uint64(j>>(2*k)) & 3
		}
		all = append(all, BlockHashes(toks, hashBT)[0])
	}

	// A 64-block chain of small tokens, then each single-token flip of
	// it: the flipped block and every block after it are new blocks (new
	// content or a new parent), the blocks before it are the base's.
	base := make([]uint64, 64*hashBT)
	for i := range base {
		base[i] = uint64(i % 7)
	}
	baseChain := BlockHashes(base, hashBT)
	all = append(all, baseChain...)
	flipped := slices.Clone(base)
	for p := range base {
		for _, v := range []uint64{base[p] ^ 1, base[p] + 1<<32, base[p] ^ 1<<63} {
			flipped[p] = v
			chain := BlockHashes(flipped, hashBT)
			if !slices.Equal(chain[:p/hashBT], baseChain[:p/hashBT]) {
				t.Fatalf("flip at token %d changed blocks before it", p)
			}
			all = append(all, chain[p/hashBT:]...)
		}
		flipped[p] = base[p]
	}
	if len(all) < n {
		t.Fatalf("only %d blocks hashed", len(all))
	}
	assertDistinct(t, all)
}

// TestBlockHashesNeverZero covers the token values most likely to drive a
// weak round to a fixed point: all-zero, all-ones and repeated tokens.
func TestBlockHashesNeverZero(t *testing.T) {
	for _, v := range []uint64{0, 1, ^uint64(0), prime1, prime2, hashSeed} {
		toks := make([]uint64, 32*hashBT)
		for i := range toks {
			toks[i] = v
		}
		for i, h := range BlockHashes(toks, hashBT) {
			if h == 0 {
				t.Fatalf("token %#x: block %d hashed to 0", v, i)
			}
		}
	}
}

// TestBlockHashesSharedPrefix: two sequences with a common token prefix
// share exactly the hashes of the blocks that prefix covers in full, and
// differ at every block after it.
func TestBlockHashesSharedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := (rng.Intn(40) + 1) * hashBT
		common := rng.Intn(n)
		a := make([]uint64, n)
		for i := range a {
			a[i] = uint64(rng.Intn(4))
		}
		b := slices.Clone(a)
		b[common] ^= uint64(rng.Intn(3) + 1) // first difference at common
		for i := common + 1; i < n; i++ {
			b[i] = uint64(rng.Intn(4))
		}
		ca, cb := BlockHashes(a, hashBT), BlockHashes(b, hashBT)
		shared := common / hashBT
		for i := range ca {
			if same := ca[i] == cb[i]; same != (i < shared) {
				t.Fatalf("trial %d: common prefix %d tokens, block %d equal=%v", trial, common, i, same)
			}
		}
	}
}

// hashSink keeps BenchmarkBlockHashes' result alive.
var hashSink []uint64

// BenchmarkBlockHashes measures hashing cost on a 4k-token prompt.
func BenchmarkBlockHashes(b *testing.B) {
	toks := make([]uint64, 4096)
	for i := range toks {
		toks[i] = uint64(i*2654435761) % 151936 // vocab-sized token ids
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = BlockHashes(toks, hashBT)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(toks)), "ns/token")
}
