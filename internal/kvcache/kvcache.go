// Package kvcache implements a paged, content-addressed KV cache with
// prefix caching, LRU eviction and PrefillOnly's suffix discarding.
//
// Tokens are grouped into fixed-size blocks (vLLM-style paging). A block's
// identity is the hash of its tokens chained with its parent block's hash,
// so two requests that share a token prefix share cache blocks. Capacity is
// tracked in bytes of full-depth KV cache; eviction is LRU over unpinned
// blocks, and a block can only be evicted after every block chained below
// it (no dangling prefixes).
package kvcache

import (
	"fmt"
	"math/bits"
)

// Stats counts cache activity since construction.
type Stats struct {
	// LookupTokens is the full-block tokens presented to Lookup and Pin
	// (len(hashes)·BlockTokens; a partial tail block is never counted).
	LookupTokens int64
	// HitTokens is the tokens Lookup and Pin found cached.
	HitTokens int64
	// InsertedBlocks counts blocks newly inserted.
	InsertedBlocks int64
	// EvictedBlocks counts blocks evicted to make space.
	EvictedBlocks int64
	// OffloadedBlocks counts evicted blocks demoted to the host tier.
	OffloadedBlocks int64
	// RejectedBlocks counts insertions dropped because space could not
	// be reclaimed (everything else was pinned or hotter).
	RejectedBlocks int64
}

// HitRate returns the fraction of looked-up tokens served from cache.
func (s Stats) HitRate() float64 {
	if s.LookupTokens == 0 {
		return 0
	}
	return float64(s.HitTokens) / float64(s.LookupTokens)
}

type block struct {
	hash     uint64
	lastUsed float64
	parent   int32 // arena slot of the parent block; -1 for a root block
	slot     int32 // this block's arena slot
	depth    int32 // 1-based chain position; 0 marks a free arena slot
	children int32 // blocks that chain onto this one
	// pins counts the pinned chains (PinH, or an InsertH in progress)
	// whose deepest block this is. Their other blocks need no pin: a
	// block with a cached child is never evictable.
	pins int32

	// heap index for the LRU heap; -1 when not evictable.
	heapIdx int32
}

// arenaChunk is the blocks per arena chunk.
const arenaChunk = 256

// blockArena stores the GPU tier's blocks in fixed-size chunks, so a
// *block stays valid for the Manager's lifetime, and recycles evicted
// blocks' slots through a free list instead of allocating per insert.
type blockArena struct {
	chunks []*[arenaChunk]block
	free   []int32
	n      int32 // slots handed out so far (live + free)
}

func (a *blockArena) at(slot int32) *block {
	return &a.chunks[slot/arenaChunk][slot%arenaChunk]
}

// alloc returns a zeroed block whose slot field is set.
func (a *blockArena) alloc() *block {
	if n := len(a.free); n > 0 {
		slot := a.free[n-1]
		a.free = a.free[:n-1]
		return a.at(slot)
	}
	if int(a.n)%arenaChunk == 0 {
		a.chunks = append(a.chunks, new([arenaChunk]block))
	}
	b := a.at(a.n)
	b.slot = a.n
	a.n++
	return b
}

// release zeroes b and returns its slot to the free list.
func (a *blockArena) release(b *block) {
	slot := b.slot
	*b = block{slot: slot}
	a.free = append(a.free, slot)
}

// Manager is a single simulated device's (or engine's) prefix cache.
// It is not goroutine-safe; engines are single-threaded event handlers.
type Manager struct {
	blockTokens   int
	bytesPerBlock int64
	capacity      int64
	used          int64
	reserved      int64

	index BlockTable // block hash → arena slot
	arena blockArena
	lru   lruHeap
	host  *hostTier // nil when offloading is disabled
	stats Stats

	subs    []func(ChangeEvent)
	pending ChangeEvent
}

// ChangeEvent describes the cache-membership changes of one operation:
// the block hashes newly inserted into the GPU tier and those evicted
// from it. Pins, unpins and LRU refreshes do not change membership and
// are not reported.
type ChangeEvent struct {
	Inserted []uint64
	Evicted  []uint64
}

// Subscribe registers fn to run after every operation that changes cache
// membership (Insert/InsertH, Reserve, EvictAll, LoseAll), with the block
// hashes that changed. Schedulers use the feed to rekey only the waiting
// requests whose cached prefix a changed block could move instead of
// rescanning the queue. fn runs synchronously on the engine's event
// thread; it may read the Manager but must not mutate it. The event's
// slices are reused for the next operation's changes, so fn must not
// retain them past its return.
func (m *Manager) Subscribe(fn func(ChangeEvent)) {
	m.subs = append(m.subs, fn)
}

// flushChanges delivers and clears the pending membership changes,
// keeping the buffers for the next operation.
func (m *Manager) flushChanges() {
	if len(m.pending.Inserted) == 0 && len(m.pending.Evicted) == 0 {
		return
	}
	for _, fn := range m.subs {
		fn(m.pending)
	}
	m.pending.Inserted = m.pending.Inserted[:0]
	m.pending.Evicted = m.pending.Evicted[:0]
}

// Config configures a Manager.
type Config struct {
	// BlockTokens is the tokens per cache block (vLLM default 16).
	BlockTokens int
	// BytesPerToken is the full-depth KV cache size of one token.
	BytesPerToken int64
	// CapacityBytes is the cache pool size.
	CapacityBytes int64
	// HostCapacityBytes enables the §9 CPU offload tier when positive:
	// evicted blocks demote to host memory instead of being discarded,
	// and engines may restore them over the host link.
	HostCapacityBytes int64
}

// New constructs a Manager.
func New(cfg Config) (*Manager, error) {
	if cfg.BlockTokens <= 0 {
		return nil, fmt.Errorf("kvcache: BlockTokens must be positive, got %d", cfg.BlockTokens)
	}
	if cfg.BytesPerToken <= 0 {
		return nil, fmt.Errorf("kvcache: BytesPerToken must be positive, got %d", cfg.BytesPerToken)
	}
	if cfg.CapacityBytes < 0 {
		return nil, fmt.Errorf("kvcache: CapacityBytes must be non-negative, got %d", cfg.CapacityBytes)
	}
	m := &Manager{
		blockTokens:   cfg.BlockTokens,
		bytesPerBlock: cfg.BytesPerToken * int64(cfg.BlockTokens),
		capacity:      cfg.CapacityBytes,
	}
	if cfg.HostCapacityBytes > 0 {
		m.host = newHostTier(cfg.HostCapacityBytes, m.bytesPerBlock)
	}
	return m, nil
}

// BlockTokens returns the tokens per cache block.
func (m *Manager) BlockTokens() int { return m.blockTokens }

// Stats returns a copy of the activity counters.
func (m *Manager) Stats() Stats { return m.stats }

// CapacityBytes returns the pool size.
func (m *Manager) CapacityBytes() int64 { return m.capacity }

// UsedBytes returns the bytes currently held by cached blocks.
func (m *Manager) UsedBytes() int64 { return m.used }

// CapacityTokens returns the whole blocks the pool can hold, in tokens.
func (m *Manager) CapacityTokens() int {
	if m.bytesPerBlock == 0 {
		return 0
	}
	return int(m.capacity/m.bytesPerBlock) * m.blockTokens
}

// BlockHashes maps a token sequence to its chain of content-addressed
// block hashes: hash(block i) covers block i's tokens chained with block
// i-1's hash. Only full blocks participate in prefix caching (partial tail
// blocks are never shared), matching vLLM. The hash is deterministic, so
// chains computed once per request are valid for every Manager with the
// same block size. 0 is reserved as "no parent" and never returned.
//
// Each token costs one mix round and each block one finalizer. Nothing
// in the simulator orders by hash value (caches, routers and schedulers
// only test membership), so the hash function can change without moving
// any modelled result.
func BlockHashes(tokens []uint64, blockTokens int) []uint64 {
	if blockTokens <= 0 {
		panic("kvcache: blockTokens must be positive")
	}
	n := len(tokens) / blockTokens
	hashes := make([]uint64, n)
	var parent uint64
	for i := range hashes {
		h := parent ^ hashSeed
		for _, tok := range tokens[i*blockTokens : (i+1)*blockTokens] {
			h = mix(h, tok)
		}
		h = fmix64(h)
		if h == 0 {
			h = 1
		}
		parent = h
		hashes[i] = h
	}
	return hashes
}

// xxHash64 primes; hashSeed keeps a root block's state away from 0.
const (
	prime1   = 0x9e3779b185ebca87
	prime2   = 0xc2b2ae3d27d4eb4f
	hashSeed = 0x27d4eb2f165667c5
)

// mix folds one 64-bit token into a block's running hash with an
// xxHash64-style round: one multiply off the dependency chain, then
// xor, rotate and multiply. With the other input fixed, a round is a
// bijection of h and of tok, and fmix64 is a bijection too, so two blocks
// that differ in a single token, or only in their parent, always hash
// apart (up to the 0→1 remap).
func mix(h, tok uint64) uint64 {
	return bits.RotateLeft64(h^tok*prime2, 31) * prime1
}

// fmix64 is MurmurHash3's 64-bit finalizer, run once per block so every
// input bit avalanches into the chained hash.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (m *Manager) blockHashes(tokens []uint64) []uint64 {
	return BlockHashes(tokens, m.blockTokens)
}

// lookup returns the cached block with the given hash, or nil.
func (m *Manager) lookup(hash uint64) *block {
	slot, ok := m.index.Get(hash)
	if !ok {
		return nil
	}
	return m.arena.at(int32(slot))
}

// Lookup returns the number of leading tokens of the sequence that are
// cached (whole blocks only) and refreshes their LRU timestamps.
func (m *Manager) Lookup(tokens []uint64, now float64) int {
	return m.LookupH(m.blockHashes(tokens), now)
}

// LookupH is Lookup over a precomputed hash chain (see BlockHashes).
func (m *Manager) LookupH(hashes []uint64, now float64) int {
	m.stats.LookupTokens += int64(len(hashes) * m.blockTokens)
	hit := 0
	for _, hash := range hashes {
		b := m.lookup(hash)
		if b == nil {
			break
		}
		b.lastUsed = now
		if b.heapIdx >= 0 {
			m.lru.fix(b)
		}
		hit += m.blockTokens
	}
	m.stats.HitTokens += int64(hit)
	return hit
}

// Peek returns the number of leading tokens of the sequence that are
// cached without refreshing LRU state or stats. Schedulers use it during
// continuous JCT calibration sweeps, which must not distort eviction order.
func (m *Manager) Peek(tokens []uint64) int {
	return m.PeekH(m.blockHashes(tokens))
}

// PeekH is Peek over a precomputed hash chain. hashes must be a root
// chain from BlockHashes (or a prefix of one): the probe relies on the
// chain's cached blocks forming a prefix of it.
//
// They always do. Block i+1 of a root chain hashes over block i's hash,
// so it was inserted chained onto block i; insertion follows the chain
// from its root and stops at the first block it cannot place, and
// eviction takes only childless blocks. So membership along the chain is
// true for blocks 0..k-1 and false after, and PeekH finds k by binary
// search in O(log n) lookups instead of walking all k blocks.
func (m *Manager) PeekH(hashes []uint64) int {
	lo, hi := 0, len(hashes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.index.Has(hashes[mid]) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo * m.blockTokens
}

// HasBlock reports whether the block with the given content hash is
// cached, without refreshing LRU state or stats. Routers use it to merge
// cache contents with their own in-flight bookkeeping when estimating
// per-instance hit lengths.
func (m *Manager) HasBlock(hash uint64) bool {
	return m.index.Has(hash)
}

// Reserve claims bytes of pool space for a request's execution-time KV
// residency (conventional engines must hold the full fresh KV of a running
// request in the pool). Colder unpinned blocks are evicted to make room.
// It returns the shortfall that could not be satisfied (which the engine
// must spill over the host link) and a release function.
func (m *Manager) Reserve(bytes int64) (shortfall int64, release func()) {
	defer m.flushChanges() // reclaim may evict
	if bytes < 0 {
		bytes = 0
	}
	m.reclaim(bytes)
	free := m.capacity - m.used - m.reserved
	if free < 0 {
		free = 0
	}
	granted := bytes
	if granted > free {
		granted = free
	}
	m.reserved += granted
	released := false
	return bytes - granted, func() {
		if released {
			return
		}
		released = true
		m.reserved -= granted
	}
}

// ReservedBytes returns the pool bytes currently claimed by running
// requests.
func (m *Manager) ReservedBytes() int64 { return m.reserved }

// Pin marks the cached prefix of the sequence as in-use (unevictable) and
// returns the pinned token count along with a release function. Engines pin
// a request's hit prefix for the duration of its execution.
func (m *Manager) Pin(tokens []uint64, now float64) (int, func()) {
	return m.PinH(m.blockHashes(tokens), now)
}

// PinH is Pin over a precomputed hash chain, which must be a root chain
// from BlockHashes. Like Lookup, it counts toward the hit-rate
// statistics (engines pin instead of looking up).
//
// Only the deepest hit block carries the pin: every block above it has a
// cached child, so none of them is evictable while the pinned one stays.
// Release is therefore a single unpin, whatever the chain's length.
func (m *Manager) PinH(hashes []uint64, now float64) (int, func()) {
	m.stats.LookupTokens += int64(len(hashes) * m.blockTokens)
	var tip *block
	for _, hash := range hashes {
		b := m.lookup(hash)
		if b == nil {
			break
		}
		mustChainOnto(b, tip)
		b.lastUsed = now
		tip = b
	}
	if tip == nil {
		return 0, func() {}
	}
	if tip.heapIdx >= 0 {
		m.lru.remove(tip)
	}
	tip.pins++
	hit := int(tip.depth) * m.blockTokens
	m.stats.HitTokens += int64(hit)
	released := false
	return hit, func() {
		if released {
			return
		}
		released = true
		m.unpin(tip)
	}
}

// mustChainOnto panics unless b was inserted chained onto parent (nil for
// a chain's first block). A root chain's blocks always are, and pinning
// only a chain's deepest block protects the rest only if they are.
func mustChainOnto(b, parent *block) {
	want := int32(-1)
	if parent != nil {
		want = parent.slot
	}
	if b.parent != want {
		panic("kvcache: hash chain is not a root chain from BlockHashes")
	}
}

// unpin drops one pin from b, which becomes evictable when it was the
// last and b has no children.
func (m *Manager) unpin(b *block) {
	b.pins--
	m.maybeEvictable(b)
}

// maybeEvictable inserts a block into the LRU heap when it has become
// evictable (no pins and no children).
func (m *Manager) maybeEvictable(b *block) {
	if b.pins == 0 && b.children == 0 && b.heapIdx < 0 {
		m.lru.push(b)
	}
}

// Insert caches the KV blocks of tokens[:limit], evicting colder unpinned
// blocks as needed, and returns the number of tokens actually cached.
// Blocks that are already present are refreshed. Insertion stops at the
// first block for which space cannot be reclaimed — this is suffix
// discarding: the prefix stays, the suffix is dropped.
//
// The deepest block placed so far is pinned while the walk is in
// progress, so reclaim can never evict the block that the next block of
// the same request is about to chain onto; the blocks above it are safe
// because each has a cached child.
func (m *Manager) Insert(tokens []uint64, limit int, now float64) int {
	if limit > len(tokens) {
		limit = len(tokens)
	}
	if limit < 0 {
		limit = 0
	}
	return m.InsertH(m.blockHashes(tokens[:limit]), now)
}

// InsertH is Insert over a precomputed hash chain, which must be a root
// chain from BlockHashes (all given blocks are candidates; trim the chain
// to express a limit).
func (m *Manager) InsertH(hashes []uint64, now float64) int {
	defer m.flushChanges()
	cached := 0
	var tip *block
	for _, hash := range hashes {
		b := m.lookup(hash)
		if b != nil {
			mustChainOnto(b, tip)
			if b.heapIdx >= 0 {
				m.lru.remove(b)
			}
		} else {
			if !m.reclaim(m.bytesPerBlock) {
				m.stats.RejectedBlocks++
				break
			}
			if m.host != nil {
				// The block now lives in the GPU tier; drop the host copy.
				m.host.remove(hash)
			}
			b = m.arena.alloc()
			b.hash, b.depth, b.heapIdx, b.parent = hash, 1, -1, -1
			if tip != nil {
				b.parent = tip.slot
				b.depth = tip.depth + 1
				tip.children++
			}
			m.index.Set(hash, uint64(b.slot))
			m.used += m.bytesPerBlock
			if len(m.subs) > 0 {
				m.pending.Inserted = append(m.pending.Inserted, hash)
			}
			m.stats.InsertedBlocks++
		}
		b.lastUsed = now
		b.pins++
		if tip != nil {
			m.unpin(tip) // b chains onto it, so it stays unevictable
		}
		tip = b
		cached += m.blockTokens
	}
	if tip != nil {
		m.unpin(tip)
	}
	return cached
}

// reclaim evicts LRU blocks until free bytes >= need. Returns false when
// not enough unpinned leaf blocks exist.
func (m *Manager) reclaim(need int64) bool {
	for m.capacity-m.used-m.reserved < need {
		b := m.lru.popOldest()
		if b == nil {
			return false
		}
		m.evict(b)
	}
	return true
}

// evict removes an evictable block, demoting it to the host tier when
// one is configured.
func (m *Manager) evict(b *block) {
	if m.host != nil {
		m.host.add(b.hash)
		m.stats.OffloadedBlocks++
	}
	m.drop(b)
}

// drop removes an evictable block from the GPU tier and recycles its
// slot; its parent becomes evictable when this was its last child.
func (m *Manager) drop(b *block) {
	m.index.Delete(b.hash)
	m.used -= m.bytesPerBlock
	if len(m.subs) > 0 {
		m.pending.Evicted = append(m.pending.Evicted, b.hash)
	}
	m.stats.EvictedBlocks++
	if b.parent >= 0 {
		p := m.arena.at(b.parent)
		p.children--
		m.maybeEvictable(p)
	}
	m.arena.release(b)
}

// EvictAll drops every block that is not on a pinned chain (used by tests
// and by engines on reconfiguration).
func (m *Manager) EvictAll() {
	defer m.flushChanges()
	for {
		b := m.lru.popOldest()
		if b == nil {
			return
		}
		m.evict(b)
	}
}

// LoseAll models an instance crash: every GPU-tier block not on a pinned
// chain is destroyed (not demoted to the host tier, unlike eviction) and the host
// tier itself is wiped — the machine is gone, both memories with it.
// Callers must release all pins first (the engine's kill path aborts
// in-flight work before losing the cache); any still-pinned chain
// survives, exactly as EvictAll would leave it.
func (m *Manager) LoseAll() {
	defer m.flushChanges()
	for {
		b := m.lru.popOldest()
		if b == nil {
			break
		}
		m.drop(b)
	}
	if m.host != nil {
		m.host.clear()
	}
}

// Len returns the number of cached blocks.
func (m *Manager) Len() int { return m.index.Len() }

// CheckInvariants validates internal consistency; tests call it after
// operation sequences. It walks the block arena in slot order.
func (m *Manager) CheckInvariants() error {
	live := 0
	children := make([]int32, m.arena.n)
	for s := int32(0); s < m.arena.n; s++ {
		b := m.arena.at(s)
		if b.depth == 0 {
			continue
		}
		live++
		if slot, ok := m.index.Get(b.hash); !ok || int32(slot) != s {
			return fmt.Errorf("kvcache: block %x in slot %d is not indexed there", b.hash, s)
		}
		if b.parent >= 0 {
			p := m.arena.at(b.parent)
			if p.depth == 0 {
				return fmt.Errorf("kvcache: block %x has dangling parent slot %d", b.hash, b.parent)
			}
			if b.depth != p.depth+1 {
				return fmt.Errorf("kvcache: block %x depth %d under parent %x of depth %d", b.hash, b.depth, p.hash, p.depth)
			}
			children[b.parent]++
		} else if b.depth != 1 {
			return fmt.Errorf("kvcache: root block %x has depth %d", b.hash, b.depth)
		}
	}
	if live != m.index.Len() {
		return fmt.Errorf("kvcache: %d live blocks but %d indexed", live, m.index.Len())
	}
	if live+len(m.arena.free) != int(m.arena.n) {
		return fmt.Errorf("kvcache: %d live + %d free slots, arena holds %d", live, len(m.arena.free), m.arena.n)
	}
	if used := int64(live) * m.bytesPerBlock; used != m.used {
		return fmt.Errorf("kvcache: used=%d but blocks sum to %d", m.used, used)
	}
	if m.used > m.capacity {
		return fmt.Errorf("kvcache: used %d exceeds capacity %d", m.used, m.capacity)
	}
	for s := int32(0); s < m.arena.n; s++ {
		b := m.arena.at(s)
		if b.depth == 0 {
			continue
		}
		if b.children != children[s] {
			return fmt.Errorf("kvcache: block %x children=%d, actual %d", b.hash, b.children, children[s])
		}
		evictable := b.pins == 0 && b.children == 0
		if evictable != (b.heapIdx >= 0) {
			return fmt.Errorf("kvcache: block %x evictable=%v but heapIdx=%d (pins=%d children=%d)",
				b.hash, evictable, b.heapIdx, b.pins, b.children)
		}
	}
	return nil
}
