package conc

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBudgetCapsConcurrency(t *testing.T) {
	const cap, workers = 3, 20
	b := NewBudget(cap)
	var (
		wg      sync.WaitGroup
		running atomic.Int64
		peak    atomic.Int64
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.Acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			defer b.Release()
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > cap {
		t.Fatalf("observed %d concurrent holders, budget caps at %d", p, cap)
	}
	if h := b.HighWater(); h > cap {
		t.Fatalf("HighWater() = %d, cap is %d", h, cap)
	}
	if got := b.Acquires(); got != workers {
		t.Fatalf("Acquires() = %d, want %d", got, workers)
	}
	if u := b.InUse(); u != 0 {
		t.Fatalf("InUse() = %d after all releases", u)
	}
}

func TestBudgetAcquireHonoursContext(t *testing.T) {
	b := NewBudget(1)
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := b.Acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Acquire on a full budget returned %v, want DeadlineExceeded", err)
	}
	b.Release()
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire after Release failed: %v", err)
	}
	b.Release()
}

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *Budget
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	b.Release()
	if b.Cap() != 0 || b.InUse() != 0 || b.HighWater() != 0 || b.Acquires() != 0 {
		t.Fatal("nil budget reported non-zero counters")
	}
}

func TestNewBudgetClampsCapacity(t *testing.T) {
	if got := NewBudget(0).Cap(); got != 1 {
		t.Fatalf("NewBudget(0).Cap() = %d, want 1", got)
	}
	if got := NewBudget(-3).Cap(); got != 1 {
		t.Fatalf("NewBudget(-3).Cap() = %d, want 1", got)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unmatched Release did not panic")
		}
	}()
	NewBudget(1).Release()
}

func TestDefaultIsSharedAndBounded(t *testing.T) {
	a, b := Default(), Default()
	if a != b {
		t.Fatal("Default() returned distinct budgets")
	}
	if a.Cap() < 1 {
		t.Fatalf("Default().Cap() = %d", a.Cap())
	}
}
