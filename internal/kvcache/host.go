package kvcache

// Host-memory offload tier (paper §9, "Offloading the KV caches to CPU"):
// instead of discarding evicted prefix blocks, the manager can demote them
// to a host-memory tier. A later request whose prefix extends past its
// GPU-cache hit can restore the following blocks over the host link
// instead of recomputing them; the engine decides whether restoring beats
// recomputing (LMCache-style semantics).
//
// The tier is content-addressed like the GPU tier but evicts FIFO: host
// memory is large and cheap, so recency tracking buys little there.

import "repro/internal/ringbuf"

// hostEntry is one FIFO slot: the block hash plus the insertion sequence
// number that makes it identifiable as stale. Each membership carries a
// fresh seq: an entry is live only while it matches the table's current
// seq for that hash, so a re-add refreshes the block's FIFO position and
// orphaned entries are discarded when popped (plus compacted lazily).
type hostEntry struct {
	hash uint64
	seq  uint64
}

type hostTier struct {
	capacity int64
	used     int64
	perBlock int64
	blocks   BlockTable // hash → seq of its live queue entry
	queue    ringbuf.Ring[hostEntry]
	nextSeq  uint64
	stale    int // queue entries no longer matching blocks
}

func newHostTier(capacity, perBlock int64) *hostTier {
	return &hostTier{capacity: capacity, perBlock: perBlock}
}

// popOldest evicts the oldest live block, skipping stale entries. It
// returns false when the queue holds no live entry.
func (h *hostTier) popOldest() bool {
	for {
		e, ok := h.queue.PopFront()
		if !ok {
			return false
		}
		if seq, live := h.blocks.Get(e.hash); live && seq == e.seq {
			h.blocks.Delete(e.hash)
			h.used -= h.perBlock
			return true
		}
		h.stale--
	}
}

func (h *hostTier) add(hash uint64) {
	if h.blocks.Has(hash) {
		// Already resident: FIFO semantics, no position refresh.
		return
	}
	for h.used+h.perBlock > h.capacity {
		if !h.popOldest() {
			break
		}
	}
	if h.used+h.perBlock > h.capacity {
		return
	}
	h.nextSeq++
	h.blocks.Set(hash, h.nextSeq)
	h.queue.PushBack(hostEntry{hash: hash, seq: h.nextSeq})
	h.used += h.perBlock
}

func (h *hostTier) remove(hash uint64) {
	if h.blocks.Delete(hash) {
		h.used -= h.perBlock
		h.stale++
		h.compact()
	}
}

// compact rewrites the queue without its stale entries once they outnumber
// the live ones, so a remove-heavy workload cannot grow the queue beyond
// twice the resident block count.
func (h *hostTier) compact() {
	if h.stale <= h.queue.Len()/2 {
		return
	}
	var q ringbuf.Ring[hostEntry]
	for {
		e, ok := h.queue.PopFront()
		if !ok {
			break
		}
		if seq, live := h.blocks.Get(e.hash); live && seq == e.seq {
			q.PushBack(e)
		}
	}
	h.queue = q
	h.stale = 0
}

// clear drops the whole tier (instance crash: host memory is lost with
// the machine). The table and queue are replaced rather than drained so
// a crashed tier releases its peak-size backing arrays.
func (h *hostTier) clear() {
	h.blocks = BlockTable{}
	h.queue = ringbuf.Ring[hostEntry]{}
	h.used = 0
	h.stale = 0
}

func (h *hostTier) contains(hash uint64) bool {
	return h.blocks.Has(hash)
}

// HostHitH returns how many tokens, contiguously following the first
// skipBlocks blocks of the chain, are available in the host tier.
//
// Unlike PeekH it walks the chain block by block. The GPU tier's prefix
// property comes from evicting only childless blocks; the host tier
// evicts by FIFO age whether or not a block's descendants are still
// resident, so nothing in its design keeps a chain's host-resident
// blocks contiguous, and a binary search could skip over a gap.
func (m *Manager) HostHitH(hashes []uint64, skipBlocks int) int {
	if m.host == nil || skipBlocks >= len(hashes) {
		return 0
	}
	hit := 0
	for _, hash := range hashes[skipBlocks:] {
		if !m.host.contains(hash) {
			break
		}
		hit += m.blockTokens
	}
	return hit
}

// HostUsedBytes returns the bytes held by the host tier (0 when disabled).
func (m *Manager) HostUsedBytes() int64 {
	if m.host == nil {
		return 0
	}
	return m.host.used
}
