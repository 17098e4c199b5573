package sa

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"vpart/internal/core"
	"vpart/internal/progress"
	"vpart/internal/tpcc"
)

func fixtureInstance() *core.Instance {
	return &core.Instance{
		Name: "sa-fixture",
		Schema: core.Schema{Tables: []core.Table{
			{Name: "R", Attributes: []core.Attribute{
				{Name: "a1", Width: 4}, {Name: "a2", Width: 8}, {Name: "a3", Width: 2},
			}},
			{Name: "S", Attributes: []core.Attribute{
				{Name: "b1", Width: 4}, {Name: "b2", Width: 16},
			}},
			{Name: "U", Attributes: []core.Attribute{
				{Name: "c1", Width: 8}, {Name: "c2", Width: 32},
			}},
		}},
		Workload: core.Workload{Transactions: []core.Transaction{
			{Name: "T1", Queries: []core.Query{
				core.NewRead("q1", "R", []string{"a1", "a2"}, 1, 1),
				core.NewWrite("q2", "S", []string{"b1"}, 1, 2),
			}},
			{Name: "T2", Queries: []core.Query{
				core.NewRead("q3", "S", []string{"b1", "b2"}, 10, 1),
			}},
			{Name: "T3", Queries: []core.Query{
				core.NewRead("q4", "U", []string{"c1", "c2"}, 5, 1),
			}},
		}},
	}
}

func mustModel(t *testing.T, inst *core.Instance, opts core.ModelOptions) *core.Model {
	t.Helper()
	m, err := core.NewModel(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// bruteForceBalanced finds the true optimum of objective (6) by enumeration
// (the fixture is small enough).
func bruteForceBalanced(m *core.Model, sites int) float64 {
	nT, nA := m.NumTxns(), m.NumAttrs()
	best := math.Inf(1)
	p := core.NewPartitioning(nT, nA, sites)
	var rec func(level int)
	recAttr := func(a int, next func(int)) {
		for mask := 1; mask < 1<<sites; mask++ {
			for s := 0; s < sites; s++ {
				p.AttrSites[a][s] = mask&(1<<s) != 0
			}
			next(a + 1)
		}
		for s := 0; s < sites; s++ {
			p.AttrSites[a][s] = false
		}
	}
	var attrRec func(a int)
	attrRec = func(a int) {
		if a == nA {
			if p.Validate(m) == nil {
				if c := m.Evaluate(p).Balanced; c < best {
					best = c
				}
			}
			return
		}
		recAttr(a, attrRec)
	}
	rec = func(t int) {
		if t == nT {
			attrRec(0)
			return
		}
		for s := 0; s < sites; s++ {
			p.TxnSite[t] = s
			rec(t + 1)
		}
	}
	rec(0)
	return best
}

func TestSolveFindsNearOptimalSolution(t *testing.T) {
	m := mustModel(t, fixtureInstance(), core.ModelOptions{Penalty: 2, Lambda: 0.1})
	want := bruteForceBalanced(m, 2)

	res, err := Solve(context.Background(), m, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitioning == nil {
		t.Fatal("no partitioning returned")
	}
	if err := res.Partitioning.Validate(m); err != nil {
		t.Fatalf("infeasible result: %v", err)
	}
	if res.Cost.Balanced > want*1.05+1e-9 {
		t.Fatalf("SA cost %g more than 5%% above the optimum %g", res.Cost.Balanced, want)
	}
	if res.InitialTemperature <= 0 {
		t.Fatal("initial temperature not set")
	}
	if res.Iterations == 0 || res.OuterLoops == 0 {
		t.Fatal("no iterations recorded")
	}
}

func TestSolveDeterministicForSeed(t *testing.T) {
	m := mustModel(t, fixtureInstance(), core.DefaultModelOptions())
	opts := DefaultOptions(3)
	opts.Seed = 42
	r1, err := Solve(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cost.Balanced != r2.Cost.Balanced || r1.Iterations != r2.Iterations {
		t.Fatalf("same seed produced different runs: %g/%d vs %g/%d",
			r1.Cost.Balanced, r1.Iterations, r2.Cost.Balanced, r2.Iterations)
	}
	opts.Seed = 43
	r3, err := Solve(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds may legitimately find the same cost, but the run shape
	// (acceptance count) virtually never matches exactly; only check that the
	// run completed.
	if r3.Partitioning == nil {
		t.Fatal("seed 43 returned nothing")
	}
}

func TestSolveDisjointMode(t *testing.T) {
	m := mustModel(t, fixtureInstance(), core.DefaultModelOptions())
	opts := DefaultOptions(2)
	opts.Disjoint = true
	res, err := Solve(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partitioning.Validate(m); err != nil {
		t.Fatalf("infeasible result: %v", err)
	}
	if !res.Partitioning.IsDisjoint() {
		t.Fatal("disjoint mode returned a replicated partitioning")
	}
}

func TestDisjointNeverBeatsReplicated(t *testing.T) {
	m := mustModel(t, fixtureInstance(), core.DefaultModelOptions())
	repl, err := Solve(context.Background(), m, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(2)
	opts.Disjoint = true
	disj, err := Solve(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Replication can only help; allow a tiny heuristic slack.
	if repl.Cost.Balanced > disj.Cost.Balanced*1.02+1e-9 {
		t.Fatalf("replicated SA (%g) noticeably worse than disjoint SA (%g)",
			repl.Cost.Balanced, disj.Cost.Balanced)
	}
}

func TestSingleSiteShortcut(t *testing.T) {
	m := mustModel(t, fixtureInstance(), core.DefaultModelOptions())
	res, err := Solve(context.Background(), m, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	want := m.Evaluate(core.SingleSite(m, 1))
	if res.Cost.Objective != want.Objective {
		t.Fatalf("single-site objective %g, want %g", res.Cost.Objective, want.Objective)
	}
}

func TestMoreSitesNeverMuchWorse(t *testing.T) {
	m := mustModel(t, fixtureInstance(), core.DefaultModelOptions())
	single, _ := Solve(context.Background(), m, DefaultOptions(1))
	multi, err := Solve(context.Background(), m, DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	// The single-site layout is always feasible, so a sensible heuristic
	// should not end up far above it.
	if multi.Cost.Balanced > single.Cost.Balanced*1.1 {
		t.Fatalf("3-site SA cost %g far above single-site %g", multi.Cost.Balanced, single.Cost.Balanced)
	}
}

func TestOptionsValidation(t *testing.T) {
	m := mustModel(t, fixtureInstance(), core.DefaultModelOptions())
	bad := []Options{
		{Sites: 0},
	}
	for i, o := range bad {
		if _, err := Solve(context.Background(), m, o); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
}

func TestTimeLimit(t *testing.T) {
	m := mustModel(t, fixtureInstance(), core.DefaultModelOptions())
	opts := DefaultOptions(3)
	opts.TimeLimit = time.Nanosecond
	res, err := Solve(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Log("run finished before the limit could trigger (acceptable on fast machines)")
	}
	if res.Partitioning == nil || res.Partitioning.Validate(m) != nil {
		t.Fatal("time-limited run must still return a feasible solution")
	}
}

func TestMoveCount(t *testing.T) {
	cases := []struct {
		n        int
		fraction float64
		want     int
	}{
		{100, 0.1, 10},
		{5, 0.1, 1},
		{0, 0.1, 0},
		{3, 1.0, 3},
		{7, 0.5, 4},
	}
	for _, c := range cases {
		if got := moveCount(c.n, c.fraction); got != c.want {
			t.Errorf("moveCount(%d,%g) = %d, want %d", c.n, c.fraction, got, c.want)
		}
	}
}

// randomInstance builds a small random instance for property tests.
func randomInstance(rng *rand.Rand) *core.Instance {
	inst := &core.Instance{Name: "prop"}
	widths := []int{2, 4, 8, 16}
	nTables := 1 + rng.Intn(4)
	for ti := 0; ti < nTables; ti++ {
		tbl := core.Table{Name: "t" + string(rune('A'+ti))}
		for ai := 0; ai < 1+rng.Intn(6); ai++ {
			tbl.Attributes = append(tbl.Attributes, core.Attribute{
				Name: "a" + string(rune('0'+ai)), Width: widths[rng.Intn(len(widths))],
			})
		}
		inst.Schema.Tables = append(inst.Schema.Tables, tbl)
	}
	for t := 0; t < 1+rng.Intn(6); t++ {
		txn := core.Transaction{Name: "txn" + string(rune('0'+t))}
		for q := 0; q < 1+rng.Intn(3); q++ {
			tbl := inst.Schema.Tables[rng.Intn(nTables)]
			var attrs []string
			for _, a := range tbl.Attributes {
				if rng.Intn(2) == 0 {
					attrs = append(attrs, a.Name)
				}
			}
			if len(attrs) == 0 {
				attrs = []string{tbl.Attributes[0].Name}
			}
			name := "q" + string(rune('0'+q))
			if rng.Intn(4) == 0 {
				txn.Queries = append(txn.Queries, core.NewWrite(name, tbl.Name, attrs, float64(1+rng.Intn(10)), 1))
			} else {
				txn.Queries = append(txn.Queries, core.NewRead(name, tbl.Name, attrs, float64(1+rng.Intn(10)), 1))
			}
		}
		inst.Workload.Transactions = append(inst.Workload.Transactions, txn)
	}
	return inst
}

// Property: the SA solver always returns a feasible partitioning whose
// balanced objective is finite, for random instances, random site counts and
// both replication modes.
func TestSolveAlwaysFeasibleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randomInstance(r)
		m, err := core.NewModel(inst, core.ModelOptions{Penalty: 4, Lambda: 0.2})
		if err != nil {
			return false
		}
		opts := DefaultOptions(1 + r.Intn(4))
		opts.Seed = seed
		opts.InnerLoops = 10
		opts.MaxOuterLoops = 6
		opts.Disjoint = r.Intn(2) == 0
		res, err := Solve(context.Background(), m, opts)
		if err != nil {
			t.Logf("solve error: %v", err)
			return false
		}
		if res.Partitioning == nil || res.Partitioning.Validate(m) != nil {
			return false
		}
		if opts.Disjoint && !res.Partitioning.IsDisjoint() {
			return false
		}
		return !math.IsInf(res.Cost.Balanced, 0) && !math.IsNaN(res.Cost.Balanced)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestContextCancellationMidSolve(t *testing.T) {
	m := mustModel(t, fixtureInstance(), core.ModelOptions{Penalty: 2, Lambda: 0.1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Cancel from inside the progress stream: the callback runs synchronously
	// in the solver goroutine, so the cancellation is guaranteed to land
	// mid-solve regardless of machine speed.
	opts := DefaultOptions(2)
	var cancelledAt time.Time
	opts.Progress = func(progress.Event) {
		if cancelledAt.IsZero() {
			cancelledAt = time.Now()
			cancel()
		}
	}

	res, err := Solve(ctx, m, opts)
	if err == nil {
		t.Fatal("cancelled solve returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled solve returned a result")
	}
	if cancelledAt.IsZero() {
		t.Fatal("no progress event was emitted before the solve ended")
	}
	if since := time.Since(cancelledAt); since > time.Second {
		t.Fatalf("solver needed %v to honour the cancellation", since)
	}
}

func TestContextAlreadyCancelled(t *testing.T) {
	m := mustModel(t, fixtureInstance(), core.ModelOptions{Penalty: 2, Lambda: 0.1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, m, DefaultOptions(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// TestTPCCQualityNoWorseThanCloneLoop guards against delta-accounting drift
// changing the search behaviour: on TPC-C with fixed seeds the move-based
// loop must reach a best balanced cost no worse than the values recorded
// with the clone-and-re-evaluate loop at commit db10ace (identical model
// options, no grouping).
func TestTPCCQualityNoWorseThanCloneLoop(t *testing.T) {
	m, err := core.NewModel(tpcc.Instance(), core.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[int]float64{ // sites -> pre-refactor best balanced cost
		2: 18971.0,
		3: 17839.6,
		4: 17839.6,
	}
	for sites, want := range recorded {
		for _, seed := range []int64{1, 2, 3} {
			opts := DefaultOptions(sites)
			opts.Seed = seed
			res, err := Solve(context.Background(), m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost.Balanced > want+1e-6 {
				t.Errorf("sites=%d seed=%d: balanced cost %.6f worse than the pre-refactor %.6f",
					sites, seed, res.Cost.Balanced, want)
			}
		}
	}
}

// TestPerturbSteadyStateAllocationFree pins down the scratch-buffer reuse:
// once warmed up, a perturb propose/undo cycle — the steady state of the SA
// inner loop — must not allocate at all.
func TestPerturbSteadyStateAllocationFree(t *testing.T) {
	m, err := core.NewModel(tpcc.Instance(), core.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, disjoint := range []bool{false, true} {
		opts := DefaultOptions(4)
		opts.Disjoint = disjoint
		s := newSolver(m, opts)
		rng := rand.New(rand.NewSource(1))
		p := core.NewPartitioning(m.NumTxns(), m.NumAttrs(), 4)
		s.randomX(rng, p)
		s.findSolution(p, "x")
		p.Repair(m)
		ev, err := core.NewEvaluator(m, p)
		if err != nil {
			t.Fatal(err)
		}
		// Warm up buffer capacities (journal, missing, intensify scratch).
		for i := 0; i < 50; i++ {
			s.perturb(rng, ev)
			ev.Undo()
			s.intensify(ev, i%2 == 0)
			ev.Undo()
		}
		if allocs := testing.AllocsPerRun(200, func() {
			s.perturb(rng, ev)
			ev.Undo()
		}); allocs != 0 {
			t.Errorf("disjoint=%v: perturb/undo cycle allocates %.1f objects per run", disjoint, allocs)
		}
	}
}
