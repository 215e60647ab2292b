// Package engine exercises hotpathalloc inside a scheduling hot-path
// package: closures and method values handed to sim scheduling calls
// are flagged, the AtFunc fast path and annotated one-shot sites are
// not, and the container/heap import is flagged in the deterministic
// set.
package engine

import (
	"container/heap" // want "boxes every Push/Pop element"

	"hotpathalloc/internal/sim"
)

var _ = heap.Init

type tensorParallel struct {
	clock *sim.Sim
	cur   int
}

// tpDone is the sanctioned shape: a package-level callback with the
// engine itself as payload.
func tpDone(arg any) { arg.(*tensorParallel).cur = 0 }

func (t *tensorParallel) finish(arg any) { t.cur = 0 }

func (t *tensorParallel) schedule(dur float64) {
	t.clock.AfterFunc(dur, tpDone, t) // fast path: ok

	t.clock.After(dur, func() { t.cur = 0 }) // want "function literal passed to sim.After"

	t.clock.AfterFunc(dur, t.finish, nil) // want "bound method value passed to sim.AfterFunc"

	//prefill:allow(hotpathalloc): one-shot arrival injection at setup, not a steady-state event
	t.clock.At(0, func() { t.cur = 1 })
}
