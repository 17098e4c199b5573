package vpart_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"vpart"
)

func TestSolversRegistryListsBuiltins(t *testing.T) {
	names := vpart.Solvers()
	for _, want := range []string{"portfolio", "qp", "sa"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Solvers() = %v, missing %q", names, want)
		}
	}
	if _, ok := vpart.LookupSolver("sa"); !ok {
		t.Error("LookupSolver(sa) failed")
	}
	if _, ok := vpart.LookupSolver("no-such-solver"); ok {
		t.Error("LookupSolver found a solver that was never registered")
	}
}

// singleSiteSolver is a trivial external Solver used to exercise the
// registry: it places everything on the first site.
type singleSiteSolver struct{}

func (singleSiteSolver) Name() string { return "single-site" }

func (singleSiteSolver) Solve(ctx context.Context, m *vpart.Model, opts vpart.Options) (*vpart.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := vpart.SingleSitePartitioning(m, opts.Sites)
	return &vpart.Result{Partitioning: p, Cost: m.Evaluate(p), Solver: "single-site"}, nil
}

func TestRegisterExternalSolver(t *testing.T) {
	vpart.RegisterSolver(singleSiteSolver{})
	sol, err := vpart.Solve(context.Background(), vpart.TPCC(), vpart.Options{Sites: 2, Solver: "single-site"})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Partitioning == nil || sol.Solver != "single-site" {
		t.Fatalf("external solver not used: %+v", sol)
	}

	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterSolver did not panic")
		}
	}()
	vpart.RegisterSolver(singleSiteSolver{})
}

func TestSolveUnknownSolver(t *testing.T) {
	if _, err := vpart.Solve(context.Background(), vpart.TPCC(), vpart.Options{Sites: 2, Solver: "branch-and-pray"}); err == nil {
		t.Error("unknown solver accepted")
	}
}

// cancellationInstance is large enough that every solver is still busy tens
// of milliseconds into the solve (a full SA run on it takes around a second
// even with the incremental move-based loop), making a delayed cancellation
// land reliably mid-solve.
func cancellationInstance(t *testing.T) *vpart.Instance {
	t.Helper()
	inst, err := vpart.RandomInstance(vpart.ClassA(64, 400, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestSolveCancellationStopsEverySolver(t *testing.T) {
	// SA and the portfolio get a large random instance (a full SA run on it
	// takes seconds); the QP solver gets ungrouped TPC-C, whose linearised
	// model builds in milliseconds but takes minutes to solve — so the
	// 25 ms cancellation lands mid-search, and the <1 s budget measures the
	// solver's reaction, not model construction.
	instances := map[string]*vpart.Instance{
		"sa":        cancellationInstance(t),
		"qp":        vpart.TPCC(),
		"portfolio": cancellationInstance(t),
	}
	for _, solver := range []string{"sa", "qp", "portfolio"} {
		inst := instances[solver]
		t.Run(solver, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			var cancelledAt time.Time
			timer := time.AfterFunc(25*time.Millisecond, func() {
				cancelledAt = time.Now()
				cancel()
			})
			defer timer.Stop()

			sol, err := vpart.Solve(ctx, inst, vpart.Options{
				Sites:           3,
				Solver:          solver,
				DisableGrouping: true,
				Seed:            1,
			})
			if err == nil {
				t.Fatal("cancelled solve returned no error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v does not wrap context.Canceled", err)
			}
			if sol != nil {
				t.Fatal("cancelled solve returned a solution")
			}
			if since := time.Since(cancelledAt); since > time.Second {
				t.Fatalf("%s solver needed %v to honour the cancellation", solver, since)
			}
		})
	}
}

func TestSolveAlreadyCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, solver := range []string{"sa", "qp", "portfolio"} {
		if _, err := vpart.Solve(ctx, vpart.TPCC(), vpart.Options{Sites: 2, Solver: solver}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v does not wrap context.Canceled", solver, err)
		}
	}
}

func TestTimeLimitIsSoft(t *testing.T) {
	inst := cancellationInstance(t)
	ctx := context.Background()
	// Options.TimeLimit stops the search gracefully and returns the best
	// incumbent (no error), flagged TimedOut.
	sol, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites:           3,
		Solver:          "sa",
		DisableGrouping: true,
		TimeLimit:       50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("time-limited solve failed: %v", err)
	}
	if !sol.TimedOut {
		t.Error("50ms SA run on a large instance did not report TimedOut")
	}
	if sol.Partitioning == nil {
		t.Error("timed-out SA run returned no incumbent")
	}

	// Same for the QP solver, where a time-out may legitimately yield no
	// incumbent at all (the paper's "t/o" entries) — but never an error.
	qpSol, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites:           3,
		Solver:          "qp",
		DisableGrouping: true,
		TimeLimit:       100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("time-limited QP solve failed: %v", err)
	}
	if !qpSol.TimedOut && !qpSol.Optimal {
		t.Error("QP run neither finished nor reported TimedOut")
	}
}

func TestFixedSeedIsDeterministic(t *testing.T) {
	inst := vpart.TPCC()
	ctx := context.Background()
	a, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 2, Solver: "sa", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 2, Solver: "sa", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Seed != 1 || b.Seed != 1 {
		t.Fatalf("seeds = %d and %d, want 1 and 1", a.Seed, b.Seed)
	}
	if a.Cost.Objective != b.Cost.Objective {
		t.Fatal("two Seed-1 runs disagree")
	}
}

func TestSeedZeroDerivesDistinctSeeds(t *testing.T) {
	inst := vpart.TPCC()
	ctx := context.Background()
	a, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Seed == 0 || b.Seed == 0 {
		t.Fatalf("derived seeds must be non-zero, got %d and %d", a.Seed, b.Seed)
	}
	if a.Seed == b.Seed {
		t.Fatalf("two Seed-0 solves used the same seed %d", a.Seed)
	}

	// The portfolio reserves a whole block of derived seeds, so a following
	// Seed-0 solve must not replay one of its children's trajectories.
	pf, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites: 2, Solver: "portfolio", Portfolio: vpart.PortfolioOptions{SASeeds: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	after, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	if after.Seed <= pf.Seed {
		t.Fatalf("Seed-0 solve after a portfolio run drew seed %d inside/before the portfolio's block (winner used %d)",
			after.Seed, pf.Seed)
	}
}

func TestPortfolioRejectsQPWithRelevantAccounting(t *testing.T) {
	mo := vpart.DefaultModelOptions()
	mo.WriteAccounting = vpart.WriteRelevant
	_, err := vpart.Solve(context.Background(), vpart.TPCC(), vpart.Options{
		Sites: 2, Solver: "portfolio", Model: &mo,
		Portfolio: vpart.PortfolioOptions{QP: true},
	})
	if err == nil {
		t.Fatal("portfolio with QP accepted the relevant-attributes accounting the QP solver cannot handle")
	}
	// Without the QP child the SA-only portfolio handles it fine.
	if _, err := vpart.Solve(context.Background(), vpart.TPCC(), vpart.Options{
		Sites: 2, Solver: "portfolio", Model: &mo, Seed: 1,
	}); err != nil {
		t.Fatalf("SA-only portfolio rejected relevant-attributes accounting: %v", err)
	}
}

func TestPortfolioNotWorseThanBestSingleSeedSA(t *testing.T) {
	inst := vpart.TPCC()
	ctx := context.Background()
	const sites, seeds = 3, 4

	bestSingle := math.Inf(1)
	for seed := int64(1); seed <= seeds; seed++ {
		sol, err := vpart.Solve(ctx, inst, vpart.Options{Sites: sites, Solver: "sa", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Cost.Balanced < bestSingle {
			bestSingle = sol.Cost.Balanced
		}
	}

	pf, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites:     sites,
		Solver:    "portfolio",
		Seed:      1,
		Portfolio: vpart.PortfolioOptions{SASeeds: seeds},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pf.Partitioning == nil {
		t.Fatal("portfolio returned no partitioning")
	}
	if pf.Cost.Balanced > bestSingle+1e-9 {
		t.Fatalf("portfolio cost %.6f worse than best single-seed SA cost %.6f",
			pf.Cost.Balanced, bestSingle)
	}
	if !strings.HasPrefix(pf.Solver, "portfolio/") {
		t.Errorf("portfolio winner tag = %q", pf.Solver)
	}
	// The lineup is the SASeeds plain SA children (seeds 1..seeds for base 1)
	// plus the sa-par child (seed seeds+1).
	if pf.Seed < 1 || pf.Seed > seeds+1 {
		t.Errorf("portfolio winning seed %d outside the raced range [1,%d]", pf.Seed, seeds+1)
	}
	if pf.Iterations == 0 {
		t.Error("portfolio reported no aggregate SA iterations")
	}
}

func TestPortfolioAcceptsProvenOptimalQP(t *testing.T) {
	// On a small instance the QP solver proves optimality quickly; the
	// portfolio must accept that winner (cancelling any stragglers) and
	// report it as optimal.
	params, ok := vpart.RandomClass("rndBt4x15")
	if !ok {
		t.Fatal("rndBt4x15 missing")
	}
	inst, err := vpart.RandomInstance(params, 1)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := vpart.Solve(context.Background(), inst, vpart.Options{
		Sites:     2,
		Solver:    "portfolio",
		Seed:      1,
		Portfolio: vpart.PortfolioOptions{SASeeds: 2, QP: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Partitioning == nil {
		t.Fatal("portfolio returned no partitioning")
	}
	if !sol.Optimal {
		t.Errorf("portfolio with QP did not report a proven-optimal result (winner %s)", sol.Solver)
	}
	if sol.Solver != "portfolio/qp" {
		t.Logf("winner was %s (an SA seed tied the optimum before preference kicked in?)", sol.Solver)
	}
}

func TestProgressEventStream(t *testing.T) {
	inst := vpart.TPCC()
	var mu sync.Mutex
	var events []vpart.Event
	record := func(e vpart.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}

	if _, err := vpart.Solve(context.Background(), inst, vpart.Options{
		Sites: 2, Solver: "sa", Seed: 1, Progress: record,
	}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	saEvents := events
	events = nil
	mu.Unlock()
	incumbents := 0
	lastCost := math.Inf(1)
	for _, e := range saEvents {
		if e.Kind != vpart.EventIncumbent {
			continue
		}
		incumbents++
		if e.Solver != "sa" {
			t.Errorf("SA incumbent event tagged %q", e.Solver)
		}
		if e.Cost <= 0 || e.Cost > lastCost+1e-9 {
			t.Errorf("incumbent costs not positive and non-increasing: %.6f after %.6f", e.Cost, lastCost)
		}
		lastCost = e.Cost
		if e.Elapsed < 0 {
			t.Error("incumbent event carries a negative elapsed time")
		}
	}
	if incumbents == 0 {
		t.Fatal("SA solve emitted no incumbent events")
	}

	// Portfolio events are tagged with the emitting child.
	if _, err := vpart.Solve(context.Background(), inst, vpart.Options{
		Sites: 2, Solver: "portfolio", Seed: 1,
		Portfolio: vpart.PortfolioOptions{SASeeds: 2},
		Progress:  record,
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	pfEvents := events
	mu.Unlock()
	tagged := false
	for _, e := range pfEvents {
		if strings.HasPrefix(e.Solver, "portfolio/sa[") || e.Solver == "portfolio" {
			tagged = true
		}
	}
	if !tagged {
		t.Fatalf("portfolio emitted no portfolio-tagged events (got %d events)", len(pfEvents))
	}
}

func TestSolveNilContext(t *testing.T) {
	sol, err := vpart.Solve(nil, vpart.TPCC(), vpart.Options{Sites: 2, Seed: 1}) //nolint:staticcheck // nil ctx is documented to mean Background
	if err != nil {
		t.Fatal(err)
	}
	if sol.Partitioning == nil {
		t.Fatal("nil-context solve returned no partitioning")
	}
}
