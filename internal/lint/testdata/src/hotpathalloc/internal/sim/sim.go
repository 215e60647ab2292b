// Package sim is a stub of the real sim kernel: just enough surface
// (Sim, the Func fast path) for the hotpathalloc fixtures to type-check
// against a package whose path ends in internal/sim.
package sim

// Func is the zero-alloc fast-path callback type.
type Func func(arg any)

// Sim mirrors the real kernel's scheduling surface.
type Sim struct{ now float64 }

func (s *Sim) Now() float64                          { return s.now }
func (s *Sim) At(t float64, fn func())               {}
func (s *Sim) After(d float64, fn func())            {}
func (s *Sim) AtFunc(t float64, fn Func, arg any)    {}
func (s *Sim) AfterFunc(d float64, fn Func, arg any) {}
