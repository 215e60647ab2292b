package kvcache

import "testing"

// probeChains returns root chains that share prefixes the way request
// populations do: a trunk, branches leaving it at several depths (one at
// the root), a branch off a branch, and an unrelated chain.
func probeChains() [][]uint64 {
	const bt = 16
	trunk := seq(1, 12*bt)
	branch := func(base []uint64, cut int, stream uint64, blocks int) []uint64 {
		return append(append([]uint64{}, base[:cut*bt]...), seq(stream, blocks*bt)...)
	}
	mid := branch(trunk, 4, 20, 6)
	tokens := [][]uint64{
		trunk,
		branch(trunk, 0, 10, 5),
		branch(trunk, 2, 11, 7),
		mid,
		branch(trunk, 9, 12, 4),
		branch(mid, 7, 21, 3),
		seq(99, 8*bt),
	}
	chains := make([][]uint64, len(tokens))
	for i, toks := range tokens {
		chains[i] = BlockHashes(toks, bt)
	}
	return chains
}

// linearPeek is PeekH's reference: the block-by-block walk.
func linearPeek(m *Manager, hashes []uint64) int {
	hit := 0
	for _, h := range hashes {
		if !m.HasBlock(h) {
			break
		}
		hit += m.BlockTokens()
	}
	return hit
}

// FuzzPrefixProbes runs random cache-op sequences over shared-prefix
// chains and checks after every op that the binary-search PeekH agrees
// with the linear walk on every probe chain, and that the cache's
// invariants hold. Each op is two bytes: an opcode and an argument that
// picks the chain and, for inserts, the trimmed length.
func FuzzPrefixProbes(f *testing.F) {
	f.Add(false, uint8(20), []byte{0, 0, 0, 1, 2, 3, 9, 4, 1, 2, 3, 0, 6, 0})
	f.Add(true, uint8(6), []byte{0, 0, 0, 8, 1, 3, 4, 5, 7, 0, 0, 6, 2, 1, 3, 0})
	f.Add(true, uint8(12), []byte{0, 3, 1, 5, 2, 2, 4, 7, 5, 0, 8, 3, 7, 1, 0, 4, 1, 0})
	chains := probeChains()
	f.Fuzz(func(t *testing.T, host bool, capBlocks uint8, ops []byte) {
		cfg := Config{BlockTokens: 16, BytesPerToken: 1, CapacityBytes: int64(2+capBlocks%40) * 16}
		if host {
			cfg.HostCapacityBytes = 10 * 16
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var pins, reserves []func()
		releaseAll := func(rels []func()) []func() {
			for _, rel := range rels {
				rel()
			}
			return rels[:0]
		}
		for i := 0; i+1 < len(ops); i += 2 {
			now := float64(i)
			op, arg := ops[i]%10, int(ops[i+1])
			chain := chains[arg%len(chains)]
			switch op {
			case 0, 1:
				limit := (arg / len(chains)) % (len(chain) + 1)
				m.InsertH(chain[:limit], now)
			case 2:
				_, rel := m.PinH(chain, now)
				pins = append(pins, rel)
			case 3:
				if len(pins) > 0 {
					j := arg % len(pins)
					pins[j]()
					pins = append(pins[:j], pins[j+1:]...)
				}
			case 4:
				_, rel := m.Reserve(int64(arg%6) * 16)
				reserves = append(reserves, rel)
			case 5:
				reserves = releaseAll(reserves)
			case 6:
				m.EvictAll()
			case 7:
				// The engine's kill path: abort in-flight work, then lose
				// both tiers.
				pins = releaseAll(pins)
				m.LoseAll()
			case 8:
				m.LookupH(chain, now)
			case 9:
				pins = releaseAll(pins)
			}
			for c, probe := range chains {
				if got, want := m.PeekH(probe), linearPeek(m, probe); got != want {
					t.Fatalf("op %d (%d): PeekH(chain %d) = %d, linear walk %d", i/2, op, c, got, want)
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("op %d (%d): %v", i/2, op, err)
			}
		}
		releaseAll(pins)
		releaseAll(reserves)
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkPeekH measures one prefix probe of a 256-block chain whose
// first 200 blocks are cached, by binary search (PeekH) and by the linear
// walk it replaced.
func BenchmarkPeekH(b *testing.B) {
	const bt, blocks, cached = 16, 256, 200
	m, err := New(Config{BlockTokens: bt, BytesPerToken: 1, CapacityBytes: 4 * blocks * bt})
	if err != nil {
		b.Fatal(err)
	}
	chain := BlockHashes(seq(1, blocks*bt), bt)
	m.InsertH(chain[:cached], 0)
	for _, probe := range []struct {
		name string
		fn   func(*Manager, []uint64) int
	}{{"binary", (*Manager).PeekH}, {"linear", linearPeek}} {
		b.Run(probe.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if probe.fn(m, chain) != cached*bt {
					b.Fatal("wrong hit length")
				}
			}
		})
	}
}
