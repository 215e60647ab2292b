package kvcache

import "testing"

// checkTable asserts that t holds exactly ref: every reference key maps
// to its value, Len agrees, and no slot holds a key ref lacks.
func checkTable(t *testing.T, tab *BlockTable, ref map[uint64]uint64) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, reference holds %d", tab.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := tab.Get(k); !ok || got != want {
			t.Fatalf("Get(%#x) = %d, %v; want %d, true", k, got, ok, want)
		}
	}
	for _, s := range tab.slots {
		if s.key == 0 {
			continue
		}
		if _, ok := ref[s.key]; !ok {
			t.Fatalf("slot holds %#x, which the reference lacks", s.key)
		}
	}
}

// homeKeys returns n distinct nonzero keys whose home slot in a table of
// the given size is slot.
func homeKeys(size int, slot uint64, n int) []uint64 {
	var probe BlockTable
	for len(probe.slots) < size {
		probe.grow()
	}
	var out []uint64
	for k := uint64(1); len(out) < n; k++ {
		if probe.home(k) == slot {
			out = append(out, k)
		}
	}
	return out
}

func TestTableZeroKey(t *testing.T) {
	var tab BlockTable
	if _, ok := tab.Get(0); ok {
		t.Fatal("empty table reports key 0 present")
	}
	tab.Set(0, 7)
	tab.Set(5, 9)
	if v, ok := tab.Get(0); !ok || v != 7 {
		t.Fatalf("Get(0) = %d, %v; want 7, true", v, ok)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	for _, s := range tab.slots {
		if s.key == 0 && s.val != 0 {
			t.Fatal("key 0 was stored in the slot array")
		}
	}
	if !tab.Delete(0) || tab.Delete(0) {
		t.Fatal("Delete(0) should succeed once")
	}
	checkTable(t, &tab, map[uint64]uint64{5: 9})
}

func TestTableGrowthKeepsEntries(t *testing.T) {
	var tab BlockTable
	ref := map[uint64]uint64{}
	for i := uint64(1); i <= 5000; i++ {
		k := i * 0x9e3779b97f4a7c15 // spread keys, like chain hashes
		tab.Set(k, i)
		ref[k] = i
		if 2*tab.n > len(tab.slots) {
			t.Fatalf("load %d/%d exceeds one half", tab.n, len(tab.slots))
		}
	}
	checkTable(t, &tab, ref)
}

// Small sequential keys, as hand-made tests use, must not pile into one
// probe run: the multiplicative mix spreads them.
func TestTableSequentialKeys(t *testing.T) {
	var tab BlockTable
	ref := map[uint64]uint64{}
	for k := uint64(1); k <= 1024; k++ {
		tab.Set(k, k*k)
		ref[k] = k * k
	}
	checkTable(t, &tab, ref)
	mask := uint64(len(tab.slots) - 1)
	worst := uint64(0)
	for i, s := range tab.slots {
		if s.key == 0 {
			continue
		}
		if d := (uint64(i) - tab.home(s.key)) & mask; d > worst {
			worst = d
		}
	}
	if worst > 8 {
		t.Fatalf("sequential keys displaced up to %d slots from home", worst)
	}
	for k := uint64(1); k <= 1024; k += 2 {
		tab.Delete(k)
		delete(ref, k)
	}
	checkTable(t, &tab, ref)
}

// A probe run that wraps past the end of the slot array must close up
// correctly when an entry before the wrap is deleted.
func TestTableDeleteWrapsAround(t *testing.T) {
	var tab BlockTable
	tab.grow()
	size := len(tab.slots)
	last := uint64(size - 1)
	atLast := homeKeys(size, last, 3) // occupy last, 0, 1
	atZero := homeKeys(size, 0, 1)    // displaced to 2
	ref := map[uint64]uint64{}
	for i, k := range append(atLast, atZero...) {
		tab.Set(k, uint64(i+1))
		ref[k] = uint64(i + 1)
	}
	if len(tab.slots) != size {
		t.Fatal("table grew; the test needs the first slot array")
	}
	if tab.slots[last].key != atLast[0] || tab.slots[0].key != atLast[1] ||
		tab.slots[1].key != atLast[2] || tab.slots[2].key != atZero[0] {
		t.Fatalf("unexpected layout %v", tab.slots[:3])
	}

	tab.Delete(atLast[0])
	delete(ref, atLast[0])
	checkTable(t, &tab, ref)
	// Every survivor shifted back one slot, across the wrap.
	if tab.slots[last].key != atLast[1] || tab.slots[0].key != atLast[2] ||
		tab.slots[1].key != atZero[0] || tab.slots[2].key != 0 {
		t.Fatalf("backward shift left layout last=%#x %v", tab.slots[last].key, tab.slots[:3])
	}

	// Deleting inside the wrapped run keeps the home-0 key reachable.
	tab.Delete(atLast[2])
	delete(ref, atLast[2])
	checkTable(t, &tab, ref)
	if tab.slots[0].key != atZero[0] {
		t.Fatalf("home-0 key not back in its home slot: %v", tab.slots[:3])
	}
}

// FuzzTableMatchesMap drives set/get/delete/add from fuzz bytes against a
// Go map. Each op is two bytes: the opcode and the key. The opcode's low
// three bits pick the operation, bits 4-5 an Add magnitude, and the high
// bit spreads the key. Adds model refcounts: a count that reaches 0 is
// deleted, and a decrement past 0 must panic and leave the table as it
// was.
func FuzzTableMatchesMap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 1, 2, 0, 0, 2, 0})
	f.Add([]byte{128, 3, 128, 4, 130, 3, 0, 255, 2, 255, 1, 0})
	seq := make([]byte, 0, 512)
	for i := 0; i < 128; i++ {
		seq = append(seq, 0, byte(i))
	}
	for i := 0; i < 128; i += 3 {
		seq = append(seq, 2, byte(i))
	}
	for i := 0; i < 128; i += 2 {
		seq = append(seq, 0x34, byte(i), 0x15, byte(i))
	}
	f.Add(seq)
	// Adds at key 0 and elsewhere, counted down to 0 and past it.
	f.Add([]byte{4, 0, 0x14, 0, 5, 0, 1, 0, 0x35, 0, 1, 0, 7, 0, 4, 9, 0x84, 9, 6, 9, 5, 9, 1, 9, 7, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab BlockTable
		ref := map[uint64]uint64{}
		for i := 0; i+1 < len(data); i += 2 {
			op, key := data[i], uint64(data[i+1])
			if op&0x80 != 0 {
				key *= 0xff51afd7ed558ccd
			}
			mag := int64(1 + (op>>4)&3)
			switch op & 7 {
			case 0, 3:
				val := uint64(i)
				tab.Set(key, val)
				ref[key] = val
			case 1:
				got, ok := tab.Get(key)
				want, wantOK := ref[key]
				if ok != wantOK || got != want {
					t.Fatalf("Get(%#x) = %d, %v; want %d, %v", key, got, ok, want, wantOK)
				}
			case 2:
				_, wantOK := ref[key]
				if ok := tab.Delete(key); ok != wantOK {
					t.Fatalf("Delete(%#x) = %v, want %v", key, ok, wantOK)
				}
				delete(ref, key)
			case 4, 5, 6:
				delta := mag
				if op&7 != 4 {
					// Count down, never past 0.
					delta = -min(mag, int64(ref[key]))
				}
				want := uint64(int64(ref[key]) + delta)
				if got := tab.Add(key, delta); got != want {
					t.Fatalf("Add(%#x, %d) = %d, want %d", key, delta, got, want)
				}
				if want == 0 {
					delete(ref, key)
				} else {
					ref[key] = want
				}
			case 7:
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("Add(%#x) past 0 did not panic", key)
						}
					}()
					tab.Add(key, -int64(ref[key])-mag)
				}()
			}
			if tab.Len() != len(ref) {
				t.Fatalf("Len = %d after op %d, want %d", tab.Len(), i/2, len(ref))
			}
		}
		checkTable(t, &tab, ref)
	})
}

// BenchmarkTable compares BlockTable with map[uint64]uint64 on the block
// index's two access patterns: lookups (half hits) on a resident set, and
// insert/delete churn at a steady population.
func BenchmarkTable(b *testing.B) {
	const n = 4096
	keys := make([]uint64, 2*n)
	for i := range keys {
		keys[i] = fmix64(uint64(i) + 1)
	}
	var tab BlockTable
	m := map[uint64]uint64{}
	for i, k := range keys[:n] {
		tab.Set(k, uint64(i))
		m[k] = uint64(i)
	}
	b.Run("get/table", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if tab.Has(keys[i%(2*n)]) {
				hits++
			}
		}
		sinkInt = hits
	})
	b.Run("get/map", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if _, ok := m[keys[i%(2*n)]]; ok {
				hits++
			}
		}
		sinkInt = hits
	})
	b.Run("churn/table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % n
			tab.Delete(keys[j])
			tab.Set(keys[n+j], uint64(i))
			tab.Delete(keys[n+j])
			tab.Set(keys[j], uint64(i))
		}
	})
	b.Run("churn/map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % n
			delete(m, keys[j])
			m[keys[n+j]] = uint64(i)
			delete(m, keys[n+j])
			m[keys[j]] = uint64(i)
		}
	})
}

// sinkInt keeps benchmark results observable.
var sinkInt int
