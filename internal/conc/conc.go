// Package conc holds the process-wide concurrency budget shared by every
// compute-bound solver goroutine. The composite solvers multiply worker
// counts when nested — the portfolio races N children, the decompose
// meta-solver runs GOMAXPROCS shard workers per instance, and the
// parallel-tempering solver anneals K replicas — so portfolio-over-decompose
// with sa-par children would oversubscribe the machine by N×GOMAXPROCS×K
// without a shared cap.
//
// The discipline that keeps the budget deadlock-free: only LEAF compute work
// holds a slot (an SA or QP run, one replica level of sa-par), and composite
// solvers never hold a slot while waiting for their children. A slot holder
// therefore never blocks on another acquirer, so no cycle can form however
// deep the nesting. The budget bounds scheduling only — which goroutines run
// at once — never results: every solver's output is a pure function of its
// options and seed.
package conc

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Budget is a fixed-capacity counting semaphore with instrumentation. The
// zero *Budget (nil) is valid and unlimited: every method is a no-op, so
// callers thread an optional budget without nil checks.
type Budget struct {
	cap      int
	slots    chan struct{}
	inUse    atomic.Int64
	high     atomic.Int64
	acquires atomic.Int64
}

// NewBudget returns a budget admitting at most n concurrent holders; n < 1
// is clamped to 1 so a budget can never wedge every solver.
func NewBudget(n int) *Budget {
	if n < 1 {
		n = 1
	}
	return &Budget{cap: n, slots: make(chan struct{}, n)}
}

var (
	defaultOnce   sync.Once
	defaultBudget *Budget
)

// Default returns the process-wide budget, sized to runtime.GOMAXPROCS at
// first use: one slot per schedulable core, shared by portfolio children,
// decompose shard workers and sa-par replicas alike.
func Default() *Budget {
	defaultOnce.Do(func() {
		defaultBudget = NewBudget(runtime.GOMAXPROCS(0))
	})
	return defaultBudget
}

// Acquire blocks until a slot is free or ctx is done, returning ctx.Err() in
// the latter case. On a nil budget it returns nil immediately.
func (b *Budget) Acquire(ctx context.Context) error {
	if b == nil {
		return nil
	}
	select {
	case b.slots <- struct{}{}:
		b.note()
		return nil
	default:
	}
	select {
	case b.slots <- struct{}{}:
		b.note()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a previously acquired slot. Releasing without a matching
// acquire panics — it means a composite solver released a child's slot.
func (b *Budget) Release() {
	if b == nil {
		return
	}
	// Decrement before freeing the slot: a waiter can take the freed slot
	// immediately, and counting it while this holder is still counted would
	// push InUse (and HighWater) past the capacity transiently.
	b.inUse.Add(-1)
	select {
	case <-b.slots:
	default:
		panic("conc: Release without a matching Acquire")
	}
}

// note records a successful acquisition for the instrumentation counters.
func (b *Budget) note() {
	b.acquires.Add(1)
	n := b.inUse.Add(1)
	for {
		h := b.high.Load()
		if n <= h || b.high.CompareAndSwap(h, n) {
			return
		}
	}
}

// Cap returns the budget's capacity (0 for the unlimited nil budget).
func (b *Budget) Cap() int {
	if b == nil {
		return 0
	}
	return b.cap
}

// InUse returns the number of currently held slots.
func (b *Budget) InUse() int {
	if b == nil {
		return 0
	}
	return int(b.inUse.Load())
}

// HighWater returns the maximum number of slots ever held at once — the
// regression tests' oversubscription probe.
func (b *Budget) HighWater() int {
	if b == nil {
		return 0
	}
	return int(b.high.Load())
}

// Acquires returns the total number of successful acquisitions, proving in
// tests that the leaf solvers actually drew from the budget.
func (b *Budget) Acquires() int64 {
	if b == nil {
		return 0
	}
	return b.acquires.Load()
}
