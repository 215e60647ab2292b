// Package sched defines prefill-only requests and the scheduling policies
// the paper compares: first-in-first-out (FIFO), shortest-remaining-job-
// first with arrival-time JCT (SRJF), and PrefillOnly's SRJF with
// continuous JCT calibration and a queueing-time fairness offset
// (Algorithm 1).
package sched

import (
	"fmt"
	"sync"

	"repro/internal/ringbuf"
)

// Class is a request's SLO class. Serving traffic is stratified:
// latency-sensitive interactive requests (a user is waiting on the
// answer) and throughput-oriented batch requests (offline pipelines that
// tolerate queueing and shedding). The class threads through admission
// control (per-class backlog budgets), scheduling (per-class JCT weights)
// and autoscaling (only interactive pressure provisions capacity).
type Class uint8

const (
	// ClassInteractive is the latency-sensitive class and the zero value:
	// unlabeled requests are treated as interactive, so single-tenant
	// workloads keep their pre-class behavior exactly.
	ClassInteractive Class = iota
	// ClassBatch is the throughput-oriented class: shed first under
	// pressure, deprioritized by class-weighted scheduling.
	ClassBatch
	// NumClasses sizes per-class arrays indexed by Class.
	NumClasses = 2
)

// String returns the class's label ("interactive", "batch").
func (c Class) String() string {
	switch c {
	case ClassInteractive:
		return "interactive"
	case ClassBatch:
		return "batch"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// ParseClass maps a label to its Class; the empty string is interactive
// (the default for unlabeled traffic).
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "interactive":
		return ClassInteractive, nil
	case "batch":
		return ClassBatch, nil
	default:
		return 0, fmt.Errorf("sched: unknown SLO class %q", s)
	}
}

// Classes returns every class in index order.
func Classes() []Class { return []Class{ClassInteractive, ClassBatch} }

// Request is one prefill-only request travelling through an engine.
type Request struct {
	// ID is unique within a run.
	ID int64
	// UserID identifies the request's user for routing and prefix
	// sharing (requests of one user share a profile prefix).
	UserID int
	// Tokens is the tokenized prompt. Prefix caching is content-
	// addressed over this sequence.
	Tokens []uint64
	// ArrivalTime is the simulated arrival timestamp in seconds.
	ArrivalTime float64
	// Class is the request's SLO class (zero value: interactive).
	Class Class

	// AllowedTokens optionally constrains the output distribution (§2.3:
	// e.g. []string{"Yes","No"}); interpreted by the serving frontend.
	AllowedTokens []string

	// EstimatedSeconds is the scheduler's JCT estimate for this request,
	// stamped when the policy dequeues it for execution (0 when the
	// policy does not estimate, e.g. FIFO). The trace layer reports it
	// alongside the measured execution time so estimator error is
	// observable per request.
	EstimatedSeconds float64

	// Chain memoizes the prefix-cache hash chain of Tokens (see
	// HashChain). NewRequest attaches one, and Dataset.Clone copies the
	// pointer, so a generated request and all of its clones share one
	// chain. When nil, engine.HashesOf attaches a memo of the request's
	// own on first use.
	Chain *HashChain

	// Retries counts how many times the request has been orphaned by an
	// instance failure and re-admitted (internal/chaos). Admission sheds
	// the request once it exceeds the injector's retry budget.
	Retries int
}

// Len returns the input length in tokens.
func (r *Request) Len() int { return len(r.Tokens) }

// NewRequest returns a copy of r with a fresh hash-chain memo attached.
// The request and its memo are allocated together, so a request built
// here costs one allocation, as a bare &Request{} does.
func NewRequest(r Request) *Request {
	b := &struct {
		req   Request
		chain HashChain
	}{req: r}
	b.req.Chain = &b.chain
	return &b.req
}

// HashChain memoizes one request's content-addressed prefix-cache hash
// chain. A chain is a pure function of the tokens and the block size, so
// every copy of a request may share one memo: the first caller computes
// the chain and publishes it, and later callers, on any goroutine, read
// the same slice. A published chain is never written again (kvcache only
// reads and subslices chains), which is what makes sharing it safe.
//
// The memo holds one block size, the first one asked for; a chain for
// any other size is computed on every call and not kept. The zero value
// is an empty memo ready for use.
type HashChain struct {
	once        sync.Once
	blockTokens int
	hashes      []uint64
}

// Load returns the chain of tokens for blockTokens-sized blocks, calling
// hash to compute it when the memo does not hold it. tokens must be the
// tokens of the request the memo belongs to.
func (c *HashChain) Load(tokens []uint64, blockTokens int, hash func([]uint64, int) []uint64) []uint64 {
	c.once.Do(func() {
		c.blockTokens = blockTokens
		c.hashes = hash(tokens, blockTokens)
	})
	if c.blockTokens != blockTokens {
		return hash(tokens, blockTokens)
	}
	return c.hashes
}

// JCTFunc estimates the JCT of a request at the present moment (it
// consults the prefix cache, so its value changes over time).
type JCTFunc func(r *Request) float64

// Scheduler selects the next request to run. Implementations are not
// goroutine-safe; engines are single-threaded event handlers.
type Scheduler interface {
	// Name identifies the policy.
	Name() string
	// Enqueue adds a request to the waiting queue.
	Enqueue(r *Request)
	// Next removes and returns the request to run now, or nil when the
	// queue is empty. now is the simulated time.
	Next(now float64) *Request
	// Len returns the number of waiting requests.
	Len() int
}

// --- FIFO ---

// FIFO is first-come-first-serve scheduling (the PagedAttention baseline's
// policy). The queue is a shared ring buffer (internal/ringbuf): dequeued
// slots are reused, so the backing array is bounded by the peak queue
// depth — not by the total requests ever enqueued — and it shrinks when
// the queue drains.
type FIFO struct {
	q ringbuf.Ring[*Request]
}

// NewFIFO returns an empty FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Scheduler.
func (f *FIFO) Name() string { return "fifo" }

// Enqueue implements Scheduler.
func (f *FIFO) Enqueue(r *Request) { f.q.PushBack(r) }

// Len implements Scheduler.
func (f *FIFO) Len() int { return f.q.Len() }

// Next implements Scheduler.
func (f *FIFO) Next(now float64) *Request {
	r, _ := f.q.PopFront()
	return r
}
