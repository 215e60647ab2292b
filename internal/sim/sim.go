// Package sim is a minimal discrete-event simulation kernel: a virtual
// clock, an event heap, and deterministic random processes (Poisson
// arrivals) built on math/rand with explicit seeds.
//
// All engine and workload behaviour in this repository executes against
// this kernel, so every experiment is exactly reproducible — and every
// experiment's wall-clock cost is dominated by this kernel's hot loop.
// The event heap is therefore a value-based binary heap over an []event
// slice: scheduling an event appends into the backing array instead of
// heap-allocating a *event, and popping swaps values in place, so
// steady-state scheduling through the AtFunc/AfterFunc fast path performs
// zero heap allocations per event (pinned by TestSteadyStateSchedulingZeroAlloc).
// The backing array is bounded by the peak pending depth and shrinks when
// the queue drains, following the internal/ringbuf discipline.
//
// There is one kernel, the serial Sim. Multi-core speed comes from running
// independent runs side by side (the experiments cell executor), each on
// its own Sim; event execution within one run stays serial.
package sim

import (
	"math"
	"math/rand"
)

// Func is the fast-path event callback: a plain function pointer plus an
// opaque payload. Schedulers on the hot path pass a package-level function
// and a pointer payload so that neither the callback nor the argument
// allocates; the closure-based At/After entry points route through the
// same representation via a trampoline.
type Func func(arg any)

// event is one scheduled callback, stored by value in the heap slice.
type event struct {
	time float64
	seq  uint64 // FIFO tie-break for simultaneous events
	fn   Func
	arg  any
}

// minEventCap is the smallest backing array kept once the heap has
// allocated (same floor as internal/ringbuf).
const minEventCap = 8

// eventHeap is the value-based min-heap ordered by (time, seq). Methods
// never allocate beyond the backing array's amortized growth.
type eventHeap struct {
	events []event
}

// less orders the heap by (time, seq): earliest first, FIFO on ties.
func (h *eventHeap) less(i, j int) bool {
	a, b := &h.events[i], &h.events[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push appends an event and restores the heap invariant. Within the
// backing array's capacity this performs no allocation.
func (h *eventHeap) push(e event) {
	h.events = append(h.events, e)
	i := len(h.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.events[i], h.events[parent] = h.events[parent], h.events[i]
		i = parent
	}
}

// pop removes and returns the earliest event. The vacated tail slot is
// zeroed so the callback and payload do not linger reachable through the
// backing array, and the array halves once the pending depth drains below
// a quarter of it (ringbuf discipline: capacity tracks peak depth, not
// history).
func (h *eventHeap) pop() event {
	e := h.events[0]
	n := len(h.events) - 1
	h.events[0] = h.events[n]
	h.events[n] = event{}
	h.events = h.events[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h.events[i], h.events[m] = h.events[m], h.events[i]
		i = m
	}
	if c := cap(h.events); c > minEventCap && n <= c/4 {
		half := c / 2
		if half < minEventCap {
			half = minEventCap
		}
		next := make([]event, n, half)
		copy(next, h.events)
		h.events = next
	}
	return e
}

// len returns the pending depth.
func (h *eventHeap) len() int { return len(h.events) }

// Sim is a serial discrete-event simulator. The zero value is ready to
// use. Sim is not goroutine-safe: each simulation owns one Sim, and
// parallel experiment cells each run their own.
type Sim struct {
	now      float64
	seq      uint64
	executed uint64
	heap     eventHeap // min-heap ordered by (time, seq)
}

// Now returns the current simulated time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Executed returns the number of events the kernel has run — the
// observability layer's sim_events_total counter. One integer increment
// per event keeps it inside the kernel's zero-alloc budget.
func (s *Sim) Executed() uint64 { return s.executed }

// AtFunc schedules fn(arg) at absolute time t — the zero-alloc fast path:
// fn should be a package-level function (not a per-call closure) and arg a
// reusable pointer, so steady-state scheduling costs no heap allocations.
// Scheduling in the past (t < now) panics: it indicates a causality bug in
// the caller.
func (s *Sim) AtFunc(t float64, fn Func, arg any) {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	s.seq++
	s.heap.push(event{time: t, seq: s.seq, fn: fn, arg: arg})
}

// AfterFunc schedules fn(arg) d seconds from now (fast path).
func (s *Sim) AfterFunc(d float64, fn Func, arg any) {
	s.AtFunc(s.now+d, fn, arg)
}

// runClosure is the trampoline that adapts the closure entry points onto
// the fast path: the closure itself rides in the event's payload slot.
func runClosure(arg any) { arg.(func())() }

// At schedules fn to run at absolute time t. The closure is the payload
// (func values are pointer-shaped, so boxing it allocates nothing beyond
// the closure the caller already built). Scheduling in the past panics.
func (s *Sim) At(t float64, fn func()) {
	s.AtFunc(t, runClosure, fn)
}

// After schedules fn to run d seconds from now.
func (s *Sim) After(d float64, fn func()) {
	s.AtFunc(s.now+d, runClosure, fn)
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return s.heap.len() }

// Run executes events in time order until the queue drains, and returns
// the final simulated time. Draining shrinks the heap's backing array back
// toward minEventCap, so a Sim that served a deep burst does not pin its
// peak-depth array afterwards.
func (s *Sim) Run() float64 {
	for s.heap.len() > 0 {
		e := s.heap.pop()
		s.now = e.time
		s.executed++
		e.fn(e.arg)
	}
	return s.now
}

// RunUntil executes events with time <= deadline, leaves later events
// queued, and advances the clock to min(deadline, last event time).
func (s *Sim) RunUntil(deadline float64) {
	for s.heap.len() > 0 && s.heap.events[0].time <= deadline {
		e := s.heap.pop()
		s.now = e.time
		s.executed++
		e.fn(e.arg)
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Poisson generates exponential inter-arrival gaps for a Poisson process
// with the given rate (events/second), using a dedicated deterministic
// stream.
type Poisson struct {
	rate float64
	rng  *rand.Rand
}

// NewPoisson constructs a Poisson arrival process. Rate must be positive.
func NewPoisson(rate float64, seed int64) *Poisson {
	if rate <= 0 {
		panic("sim: Poisson rate must be positive")
	}
	return &Poisson{rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next inter-arrival gap in seconds.
func (p *Poisson) Next() float64 {
	// Inverse-CDF sampling; guard against log(0).
	u := p.rng.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -math.Log(1-u) / p.rate
}

// ArrivalTimes returns the first n absolute arrival times starting at
// start.
func (p *Poisson) ArrivalTimes(start float64, n int) []float64 {
	out := make([]float64, n)
	t := start
	for i := range out {
		t += p.Next()
		out[i] = t
	}
	return out
}
