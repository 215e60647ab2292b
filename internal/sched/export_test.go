package sched

import "fmt"

// CheckFrontier verifies the frontier index against the live cache: every
// waiting entry's recorded cached-prefix length is current, the entry is
// registered under exactly its frontier hashes (at most two), and the
// index holds no other registration.
func (c *Calibrated) CheckFrontier() error {
	if c.chain == nil {
		return nil
	}
	want := 0
	for _, e := range c.h.items {
		if k := c.cached(e.hashes); k != e.cached {
			return fmt.Errorf("request %d: indexed at %d cached blocks, cache holds %d", e.r.ID, e.cached, k)
		}
		for i, l := range e.links {
			pos := e.cached - i // links[0] sits at hashes[k], links[1] at hashes[k-1]
			linked := l.e == e
			if expect := pos >= 0 && pos < len(e.hashes); linked != expect || (expect && l.hash != e.hashes[pos]) {
				return fmt.Errorf("request %d: link %d linked=%v hash=%#x, frontier block %d of %d",
					e.r.ID, i, linked, l.hash, pos, len(e.hashes))
			}
			if linked {
				want++
			}
		}
	}
	got := 0
	//prefill:allow(simdeterminism): test-only count over the index; order-insensitive
	for h, l := range c.frontier {
		for ; l != nil; l = l.next {
			if l.hash != h || l.e.idx < 0 {
				return fmt.Errorf("stale registration of request %d under %#x", l.e.r.ID, h)
			}
			got++
		}
	}
	if got != want {
		return fmt.Errorf("index holds %d registrations, waiting entries own %d", got, want)
	}
	return nil
}

// FrontierLen returns the number of block hashes the frontier index
// holds registrations under.
func (c *Calibrated) FrontierLen() int { return len(c.frontier) }
