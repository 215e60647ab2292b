package workload

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/kvcache"
	"repro/internal/sched"
)

// smallSkewed is a Skewed dataset small enough to hash in a test loop.
func smallSkewed() *Dataset {
	return Skewed(SkewedConfig{
		Users: 8, Requests: 48, ProfileMean: 600, ProfileStd: 150,
		ProfileMin: 300, ProfileMax: 900, PostLen: 40, Seed: 1,
	})
}

// Concurrent sweep cells each clone one base and hash every request; the
// first to hash a request publishes its chain and every other clone, and
// the base, must read that same slice.
func TestClonesShareOneChainConcurrently(t *testing.T) {
	const bt, workers = 16, 4
	base := smallSkewed()
	got := make([][][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, r := range base.Clone().Requests {
				got[w] = append(got[w], engine.HashesOf(r, bt))
			}
		}(w)
	}
	wg.Wait()
	for i, r := range base.Requests {
		want := kvcache.BlockHashes(r.Tokens, bt)
		shared := &got[0][i][0]
		for w := range got {
			h := got[w][i]
			if !slices.Equal(h, want) {
				t.Fatalf("worker %d request %d: chain differs from kvcache.BlockHashes", w, i)
			}
			if &h[0] != shared {
				t.Fatalf("worker %d request %d: chain not shared with worker 0", w, i)
			}
		}
		if h := engine.HashesOf(r, bt); &h[0] != shared {
			t.Fatalf("base request %d: chain not shared with its clones", i)
		}
	}
}

// The memo keeps the first block size; another size is computed, correct
// and not cached, and the first chain survives it.
func TestChainOtherBlockSizeUncached(t *testing.T) {
	r := smallSkewed().Requests[0]
	first := engine.HashesOf(r, 16)
	other := engine.HashesOf(r, 32)
	if !slices.Equal(other, kvcache.BlockHashes(r.Tokens, 32)) {
		t.Fatal("32-token chain differs from kvcache.BlockHashes")
	}
	if again := engine.HashesOf(r, 32); &again[0] == &other[0] {
		t.Fatal("second block size was cached")
	}
	if again := engine.HashesOf(r, 16); &again[0] != &first[0] {
		t.Fatal("first chain was replaced")
	}
}

// A request and its memo cost one allocation; publishing allocates
// nothing beyond the chain itself, and a clone of a hashed base allocates
// nothing at all.
func TestHashesOfAllocations(t *testing.T) {
	const bt, runs = 16, 100
	toks := smallSkewed().Requests[0].Tokens
	fresh := make([]*sched.Request, 0, runs+1) // AllocsPerRun warms up once
	if a := testing.AllocsPerRun(runs, func() {
		fresh = append(fresh, sched.NewRequest(sched.Request{Tokens: toks}))
	}); a != 1 {
		t.Fatalf("NewRequest: %v allocs, want 1", a)
	}
	i := 0
	if a := testing.AllocsPerRun(runs, func() {
		engine.HashesOf(fresh[i], bt)
		i++
	}); a != 1 {
		t.Fatalf("first HashesOf: %v allocs, want 1 (the chain)", a)
	}
	base := smallSkewed()
	engine.HashesOf(base.Requests[0], bt)
	clone := base.Clone().Requests[0]
	if a := testing.AllocsPerRun(runs, func() { engine.HashesOf(clone, bt) }); a != 0 {
		t.Fatalf("HashesOf on a clone of a hashed base: %v allocs, want 0", a)
	}
}

// chainSink keeps benchmarked HashesOf calls from being optimized away.
var chainSink []uint64

// BenchmarkHashesOfClone prices a request's chain on a cold base (the
// first cell of a sweep hashes it) against a warm clone (every later cell
// reads the published chain).
func BenchmarkHashesOfClone(b *testing.B) {
	const bt = 16
	b.Run("cold-base", func(b *testing.B) {
		base := smallSkewed()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for _, r := range base.Requests {
				r.Chain = new(sched.HashChain)
			}
			b.StartTimer()
			for _, r := range base.Requests {
				chainSink = engine.HashesOf(r, bt)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(base.Requests)), "ns/request")
	})
	b.Run("warm-clone", func(b *testing.B) {
		base := smallSkewed()
		for _, r := range base.Requests {
			engine.HashesOf(r, bt)
		}
		clone := base.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range clone.Requests {
				chainSink = engine.HashesOf(r, bt)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(clone.Requests)), "ns/request")
	})
}
