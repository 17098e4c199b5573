package vpart_test

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"vpart"
)

// TestPortfolioFixedSeedBitIdentical reruns the portfolio with a fixed seed
// and requires bit-identical winners: the progress gating added around the
// child launches must not perturb seed derivation or winner selection.
func TestPortfolioFixedSeedBitIdentical(t *testing.T) {
	inst := vpart.TPCC()
	opts := vpart.Options{
		Sites: 3, Solver: "portfolio", Seed: 11,
		Portfolio: vpart.PortfolioOptions{SASeeds: 3},
	}
	ref, err := vpart.Solve(context.Background(), inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		sol, err := vpart.Solve(context.Background(), inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Cost.Balanced != ref.Cost.Balanced {
			t.Fatalf("run %d: balanced cost %v differs bitwise from reference %v",
				run, sol.Cost.Balanced, ref.Cost.Balanced)
		}
		if sol.Solver != ref.Solver || sol.Seed != ref.Seed {
			t.Fatalf("run %d: winner %s/seed %d, reference %s/seed %d",
				run, sol.Solver, sol.Seed, ref.Solver, ref.Seed)
		}
		if !reflect.DeepEqual(sol.Partitioning, ref.Partitioning) {
			t.Fatalf("run %d: partitioning differs from reference", run)
		}
	}
}

// TestPortfolioNoProgressAfterReturn cancels a portfolio run and requires
// silence once Solve has returned: every child callback is gated with
// progress.Func.Until on the race context, so a straggler cannot emit stale
// events at the caller.
func TestPortfolioNoProgressAfterReturn(t *testing.T) {
	inst := cancellationInstance(t)
	var (
		mu       sync.Mutex
		returned bool
		late     int
	)
	record := func(e vpart.Event) {
		mu.Lock()
		if returned {
			late++
		}
		mu.Unlock()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, _ = vpart.Solve(ctx, inst, vpart.Options{
		Sites: 3, Solver: "portfolio", Seed: 5,
		Portfolio: vpart.PortfolioOptions{SASeeds: 4},
		Progress:  record,
	})
	mu.Lock()
	returned = true
	mu.Unlock()
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if late > 0 {
		t.Fatalf("%d progress events delivered after Solve returned", late)
	}
}
