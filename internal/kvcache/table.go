package kvcache

import "math/bits"

// BlockTable is an open-addressed hash table from block hashes to uint64
// values. The GPU tier's block index (hash → arena slot), the host tier's
// membership (hash → FIFO sequence number) and the router's pending-block
// refcounts all use it in place of Go maps.
//
// It is linear probing over a power-of-two slot array, at most half full,
// with backward-shift deletion (no tombstones, so probe lengths never
// degrade under churn). Keys are placed by a multiplicative mix, so small
// hand-made test keys spread as well as real chain hashes do. Key 0 marks
// an empty slot and is therefore stored out of band.
//
// The zero value is an empty table ready for use. There is deliberately
// no iteration API: a walk would visit keys in hash order, and nothing in
// the simulator may order by hash value (see BlockHashes), so the GPU
// tier walks its block arena in slot order instead.
type BlockTable struct {
	slots   []tableSlot // len is 0 or a power of two
	shift   uint        // 64 - log2(len(slots))
	n       int         // live entries in slots (key 0 excluded)
	hasZero bool
	zeroVal uint64
}

type tableSlot struct {
	key, val uint64
}

// tableMinSlots is the slot count of a table's first allocation.
const tableMinSlots = 16

// home returns key's preferred slot: Fibonacci hashing takes the top bits
// of key·2⁶⁴/φ, which mixes every key bit into the index.
func (t *BlockTable) home(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> t.shift
}

// Len returns the number of keys in the table.
func (t *BlockTable) Len() int {
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// Get returns the value stored under key and whether key is present.
func (t *BlockTable) Get(key uint64) (uint64, bool) {
	if key == 0 {
		return t.zeroVal, t.hasZero
	}
	if t.n == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			return s.val, true
		}
		if s.key == 0 {
			return 0, false
		}
	}
}

// Has reports whether key is present.
func (t *BlockTable) Has(key uint64) bool {
	_, ok := t.Get(key)
	return ok
}

// Set stores val under key, replacing any previous value.
func (t *BlockTable) Set(key, val uint64) {
	if key == 0 {
		t.hasZero, t.zeroVal = true, val
		return
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			s.val = val
			return
		}
		if s.key == 0 {
			s.key, s.val = key, val
			t.n++
			return
		}
	}
}

// Add adds delta to the count stored under key, where an absent key
// counts 0, and returns the new count. A count that reaches 0 is deleted,
// so a table of refcounts holds only live keys. It probes the table once,
// where Get followed by Set or Delete probes twice. Driving a count below
// 0 panics.
func (t *BlockTable) Add(key uint64, delta int64) uint64 {
	if key == 0 {
		n := addCount(t.zeroVal, delta)
		t.hasZero, t.zeroVal = n != 0, n
		return n
	}
	if delta > 0 && 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	if len(t.slots) == 0 {
		return addCount(0, delta) // empty and delta <= 0
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			s.val = addCount(s.val, delta)
			if s.val == 0 {
				t.deleteAt(i)
				return 0
			}
			return s.val
		}
		if s.key == 0 {
			n := addCount(0, delta)
			if n != 0 {
				s.key, s.val = key, n
				t.n++
			}
			return n
		}
	}
}

// addCount returns n+delta, panicking if that is below 0.
func addCount(n uint64, delta int64) uint64 {
	if delta < 0 && uint64(-delta) > n {
		panic("kvcache: BlockTable count below zero")
	}
	return n + uint64(delta)
}

// Delete removes key and reports whether it was present.
func (t *BlockTable) Delete(key uint64) bool {
	if key == 0 {
		ok := t.hasZero
		t.hasZero, t.zeroVal = false, 0
		return ok
	}
	if t.n == 0 {
		return false
	}
	mask := uint64(len(t.slots) - 1)
	i := t.home(key)
	for {
		k := t.slots[i].key
		if k == key {
			break
		}
		if k == 0 {
			return false
		}
		i = (i + 1) & mask
	}
	t.deleteAt(i)
	return true
}

// deleteAt empties the occupied slot i. Backward shift: it pulls each
// later member of the probe run into the hole unless that would move it
// before its home slot.
func (t *BlockTable) deleteAt(i uint64) {
	mask := uint64(len(t.slots) - 1)
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		s := t.slots[j]
		if s.key == 0 {
			break
		}
		if (j-t.home(s.key))&mask >= (j-i)&mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = tableSlot{}
	t.n--
}

// grow doubles the slot array (or makes the first one) and reinserts
// every entry.
func (t *BlockTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < tableMinSlots {
		size = tableMinSlots
	}
	t.slots = make([]tableSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
