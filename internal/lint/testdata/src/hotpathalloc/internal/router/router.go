// Package router shows hotpathalloc's closure rule scoped to the
// scheduling hot path: the router is in the deterministic set but not
// in engine/sched, so a router-side closure is not its business.
package router

import "hotpathalloc/internal/sim"

func arm(c *sim.Sim) {
	c.At(0, func() {}) // outside engine/sched: ok
}
