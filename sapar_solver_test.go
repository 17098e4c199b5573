package vpart_test

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vpart"
)

// TestSolveSAParSolver is the facade smoke + determinism test for the
// parallel-tempering solver: "sa-par" solves through the full pipeline
// (grouping, expansion, validation) and a fixed seed reproduces the solution
// bit for bit.
func TestSolveSAParSolver(t *testing.T) {
	inst := vpart.TPCC()
	opts := vpart.Options{Sites: 3, Solver: "sa-par", Seed: 5}
	first, err := vpart.Solve(context.Background(), inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Partitioning == nil {
		t.Fatal("sa-par returned no partitioning")
	}
	if first.Solver != "sa-par" {
		t.Errorf("solver = %q, want sa-par", first.Solver)
	}
	if first.Seed != 5 {
		t.Errorf("seed = %d, want 5", first.Seed)
	}
	if first.Iterations == 0 {
		t.Error("no aggregate iterations recorded")
	}
	second, err := vpart.Solve(context.Background(), inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Partitioning, second.Partitioning) {
		t.Error("fixed-seed sa-par runs produced different partitionings")
	}
	if !reflect.DeepEqual(first.Cost, second.Cost) {
		t.Errorf("fixed-seed sa-par costs differ: %+v vs %+v", first.Cost, second.Cost)
	}

	// An explicit ladder size threads through Options.Parallel.
	small, err := vpart.Solve(context.Background(), inst, vpart.Options{
		Sites: 3, Solver: "sa-par", Seed: 5,
		Parallel: vpart.ParallelOptions{Replicas: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if small.Partitioning == nil {
		t.Fatal("2-replica sa-par returned no partitioning")
	}
}

// TestSolveSAParRegistered: the registry lists the new solver.
func TestSolveSAParRegistered(t *testing.T) {
	for _, name := range vpart.Solvers() {
		if name == "sa-par" {
			return
		}
	}
	t.Fatalf("sa-par missing from Solvers(): %v", vpart.Solvers())
}

// TestDecomposeWithSAParInner runs the decompose meta-solver with "sa-par" as
// the shard solver on a multi-component instance.
func TestDecomposeWithSAParInner(t *testing.T) {
	inst, err := vpart.RandomInstance(vpart.MultiComponentClass(2, 8, 10, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := vpart.Solve(context.Background(), inst, vpart.Options{
		Sites:      2,
		Seed:       3,
		Preprocess: vpart.PreprocessDecompose,
		Solver:     "sa-par",
		Parallel:   vpart.ParallelOptions{Replicas: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Partitioning == nil {
		t.Fatal("decompose/sa-par returned no partitioning")
	}
	if !strings.HasPrefix(sol.Solver, "decompose/") {
		t.Errorf("solver = %q, want decompose/ prefix", sol.Solver)
	}
	if len(sol.Shards) < 2 {
		t.Errorf("expected a multi-shard solve, got %d shard(s)", len(sol.Shards))
	}
}

// TestPortfolioRacesSAParChild: the default portfolio lineup includes the
// sa-par child (observable through its tagged progress events), and
// PortfolioOptions.SAPar < 0 removes it.
func TestPortfolioRacesSAParChild(t *testing.T) {
	inst := vpart.TPCC()
	run := func(saPar int) (sawChild bool) {
		var mu sync.Mutex
		if _, err := vpart.Solve(context.Background(), inst, vpart.Options{
			Sites:     2,
			Solver:    "portfolio",
			Seed:      1,
			Portfolio: vpart.PortfolioOptions{SASeeds: 2, SAPar: saPar},
			Progress: func(e vpart.Event) {
				mu.Lock()
				if strings.HasPrefix(e.Solver, "portfolio/sa-par") {
					sawChild = true
				}
				mu.Unlock()
			},
		}); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return sawChild
	}
	if !run(2) {
		t.Error("portfolio emitted no sa-par-tagged events; child not racing?")
	}
	if run(-1) {
		t.Error("portfolio with SAPar=-1 still ran the sa-par child")
	}
}
