package vpart

// White-box regression test for the shared solver budget: nested composite
// solvers (decompose over portfolio over SA/sa-par leaves) must never run
// more leaf computations at once than the budget allows. Before the budget
// existed, a decompose run defaulted its shard pool to GOMAXPROCS and every
// portfolio inside it raced another SASeeds+ goroutines — multiplicative
// oversubscription on many-shard instances.

import (
	"context"
	"testing"

	"vpart/internal/conc"
)

// TestSharedBudgetBoundsNestedSolvers swaps the process budget for a 2-slot
// one, runs the most deeply nested composition the facade offers, and checks
// the high-water mark: at no instant did more than two leaf computations hold
// slots, and none leaked.
func TestSharedBudgetBoundsNestedSolvers(t *testing.T) {
	saved := solverBudget
	budget := conc.NewBudget(2)
	solverBudget = budget
	defer func() { solverBudget = saved }()

	inst, err := RandomInstance(MultiComponentClass(3, 6, 8, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Decompose (shard pool) over the default portfolio inner solver, whose
	// cold lineup is SASeeds plain-SA leaves, each followed by its polish,
	// and then the merged layout's polish — every one of them a budget-slot
	// holder.
	sol, err := Solve(context.Background(), inst, Options{
		Sites:      2,
		Seed:       9,
		Preprocess: PreprocessDecompose,
		Solver:     "portfolio",
		Portfolio:  PortfolioOptions{SASeeds: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Partitioning == nil {
		t.Fatal("no partitioning returned")
	}
	if hw := budget.HighWater(); hw > 2 {
		t.Fatalf("leaf concurrency high-water %d exceeds the 2-slot budget", hw)
	}
	if budget.Acquires() < 4 {
		t.Errorf("only %d leaf acquisitions recorded; composition not exercised", budget.Acquires())
	}
	if in := budget.InUse(); in != 0 {
		t.Fatalf("%d budget slots leaked", in)
	}
}

// TestSolveSAParUsesSharedBudget: the sa-par facade passes the process budget
// to its replicas (one slot per replica per temperature level).
func TestSolveSAParUsesSharedBudget(t *testing.T) {
	saved := solverBudget
	budget := conc.NewBudget(2)
	solverBudget = budget
	defer func() { solverBudget = saved }()

	sol, err := Solve(context.Background(), TPCC(), Options{
		Sites: 2, Solver: "sa-par", Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Partitioning == nil {
		t.Fatal("no partitioning returned")
	}
	if hw := budget.HighWater(); hw > 2 {
		t.Fatalf("replica concurrency high-water %d exceeds the 2-slot budget", hw)
	}
	if budget.Acquires() == 0 {
		t.Fatal("sa-par never touched the shared budget")
	}
	if in := budget.InUse(); in != 0 {
		t.Fatalf("%d budget slots leaked", in)
	}
}
