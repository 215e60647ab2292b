package kvcache

// lruHeap is a min-heap of evictable blocks ordered by lastUsed, with
// depth as a tie-breaker so that deeper (suffix) blocks of a chain are
// evicted before shallower ones when timestamps tie.
type lruHeap struct {
	items []*block
}

func (h *lruHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.lastUsed != b.lastUsed {
		return a.lastUsed < b.lastUsed
	}
	return a.depth > b.depth
}

func (h *lruHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].heapIdx = int32(i)
	h.items[j].heapIdx = int32(j)
}

func (h *lruHeap) push(b *block) {
	b.heapIdx = int32(len(h.items))
	h.items = append(h.items, b)
	h.up(len(h.items) - 1)
}

func (h *lruHeap) remove(b *block) {
	i := int(b.heapIdx)
	if i < 0 {
		return
	}
	last := len(h.items) - 1
	if i != last {
		h.swap(i, last)
	}
	h.items = h.items[:last]
	b.heapIdx = -1
	if i < last {
		h.down(i)
		h.up(i)
	}
}

// fix restores heap order after b's key changed.
func (h *lruHeap) fix(b *block) {
	if b.heapIdx < 0 {
		return
	}
	h.down(int(b.heapIdx))
	h.up(int(b.heapIdx))
}

// popOldest removes and returns the least-recently-used evictable block,
// or nil when none exists.
func (h *lruHeap) popOldest() *block {
	if len(h.items) == 0 {
		return nil
	}
	b := h.items[0]
	h.remove(b)
	return b
}

func (h *lruHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *lruHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
