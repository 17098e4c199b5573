package sapar

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"vpart/internal/conc"
	"vpart/internal/core"
	"vpart/internal/randgen"
	"vpart/internal/sa"
)

// testModel compiles a small random instance — big enough that the replicas
// genuinely diverge, small enough that 20 fixed-seed runs stay fast under
// -race.
func testModel(t *testing.T) *core.Model {
	t.Helper()
	return classModel(t, randgen.ClassA(8, 24, 12), 7)
}

// testOptions is the shared fixed-seed configuration of the determinism
// tests.
func testOptions(budget *conc.Budget) Options {
	o := sa.DefaultOptions(3)
	o.Seed = 11
	return Options{SA: o, Replicas: 4, Budget: budget}
}

// fingerprint renders the full solution, so two results compare bit-exactly.
func fingerprint(res *sa.Result) string {
	s := fmt.Sprintf("%b|%v|", res.Cost.Balanced, res.Partitioning.TxnSite)
	for _, row := range res.Partitioning.AttrSites {
		s += fmt.Sprintf("%v", row)
	}
	return s
}

// TestSolveDeterministicAcrossRuns is the tentpole contract: for a fixed
// (Seed, Replicas) twenty runs — racing K goroutines each — produce
// bit-identical results. CI runs this package under -race, so a scheduling
// dependence shows up either as a fingerprint mismatch here or as a data
// race.
func TestSolveDeterministicAcrossRuns(t *testing.T) {
	m := testModel(t)
	var want string
	for run := 0; run < 20; run++ {
		res, err := Solve(context.Background(), m, testOptions(nil))
		if err != nil {
			t.Fatal(err)
		}
		got := fingerprint(res)
		if run == 0 {
			want = got
			if err := res.Partitioning.Validate(m); err != nil {
				t.Fatalf("infeasible result: %v", err)
			}
			continue
		}
		if got != want {
			t.Fatalf("run %d diverged:\n got %s\nwant %s", run, got, want)
		}
	}
}

// budgetCases are the fixed-seed configurations of the determinism and
// quality gates. The determinism gate solves once per GOMAXPROCS point p,
// with a budget of p slots; the full row is skipped under -short.
var budgetCases = []struct {
	name            string
	full            bool
	class           randgen.Params
	genSeed         int64
	sites, replicas int
	seed            int64
	procs           []int
}{
	{name: "rndAt8x24", class: randgen.ClassA(8, 24, 12), genSeed: 7, sites: 3, replicas: 4, seed: 11, procs: []int{1, 2, 8}},
	{name: "rndAt16x60", class: randgen.ClassA(16, 60, 10), genSeed: 1, sites: 4, replicas: 4, seed: 1, procs: []int{1, 2}},
	{name: "rndAt64x200", full: true, class: randgen.ClassA(64, 200, 10), genSeed: 1, sites: 8, replicas: 8, seed: 1, procs: []int{1, 2, 4, 8}},
}

// classModel compiles the fixed-seed instance of a random class.
func classModel(tb testing.TB, class randgen.Params, seed int64) *core.Model {
	tb.Helper()
	inst, err := randgen.Generate(class, seed)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := core.NewModel(inst, core.DefaultModelOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestSolveDeterministicAcrossBudgets pins the stronger property: GOMAXPROCS
// and the concurrency budget (including full serialisation at cap 1) change
// only wall-clock, never the result or the iteration count.
func TestSolveDeterministicAcrossBudgets(t *testing.T) {
	for _, tc := range budgetCases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.full && testing.Short() {
				t.Skip("full configuration")
			}
			m := classModel(t, tc.class, tc.genSeed)
			o := sa.DefaultOptions(tc.sites)
			o.Seed = tc.seed
			opts := Options{SA: o, Replicas: tc.replicas}
			base, err := Solve(context.Background(), m, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tc.procs {
				opts.Budget = conc.NewBudget(p)
				prev := runtime.GOMAXPROCS(p)
				res, err := Solve(context.Background(), m, opts)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if fingerprint(res) != fingerprint(base) || res.Iterations != base.Iterations {
					t.Fatalf("GOMAXPROCS and budget %d diverged:\n got %d iterations, %s\nwant %d iterations, %s",
						p, res.Iterations, fingerprint(res), base.Iterations, fingerprint(base))
				}
			}
		})
	}
}

// TestSolveRespectsBudget is the oversubscription regression test: with six
// replicas sharing a two-slot budget, at no point do more than two annealing
// goroutines hold slots, and every slot is returned.
func TestSolveRespectsBudget(t *testing.T) {
	m := testModel(t)
	budget := conc.NewBudget(2)
	opts := testOptions(budget)
	opts.Replicas = 6
	if _, err := Solve(context.Background(), m, opts); err != nil {
		t.Fatal(err)
	}
	if hw := budget.HighWater(); hw > 2 {
		t.Fatalf("budget high-water %d exceeds cap 2", hw)
	}
	if budget.Acquires() == 0 {
		t.Fatal("no replica ever acquired a budget slot")
	}
	if in := budget.InUse(); in != 0 {
		t.Fatalf("%d budget slots leaked", in)
	}
}

// TestSolveSingleReplicaMatchesSA: K = 1 is plain SA, bit for bit (same seed,
// not a replica-derived one).
func TestSolveSingleReplicaMatchesSA(t *testing.T) {
	m := testModel(t)
	opts := testOptions(nil)
	opts.Replicas = 1
	par, err := Solve(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := sa.Solve(context.Background(), m, opts.SA)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(par) != fingerprint(mono) {
		t.Fatalf("K=1 sapar diverged from sa.Solve:\n got %s\nwant %s", fingerprint(par), fingerprint(mono))
	}
}

// TestSolveQualityReasonable: the population's polished best must be
// feasible and cost at most 3 % more than a plain single-seed SA run, because
// replica 0 alone explores at the monolithic schedule and exchanges can only
// improve incumbents. (Deterministic: fixed seeds.)
func TestSolveQualityReasonable(t *testing.T) {
	for _, tc := range budgetCases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.full && testing.Short() {
				t.Skip("full configuration")
			}
			m := classModel(t, tc.class, tc.genSeed)
			o := sa.DefaultOptions(tc.sites)
			o.Seed = tc.seed
			res, err := Solve(context.Background(), m, Options{SA: o, Replicas: tc.replicas})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Partitioning.Validate(m); err != nil {
				t.Fatalf("infeasible result: %v", err)
			}
			mono, err := sa.Solve(context.Background(), m, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost.Balanced > mono.Cost.Balanced*1.03+1e-9 {
				t.Fatalf("sa-par cost %g more than 3%% above monolithic SA %g",
					res.Cost.Balanced, mono.Cost.Balanced)
			}
			if res.Iterations <= mono.Iterations {
				t.Fatalf("population iterations %d not above a single chain's %d",
					res.Iterations, mono.Iterations)
			}
		})
	}
}

// TestSolveWarmStart threads Options.SA.Initial through every replica.
func TestSolveWarmStart(t *testing.T) {
	m := testModel(t)
	opts := testOptions(nil)
	cold, err := sa.Solve(context.Background(), m, opts.SA)
	if err != nil {
		t.Fatal(err)
	}
	opts.SA.Initial = cold.Partitioning
	res, err := Solve(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WarmStart {
		t.Fatal("warm start not recorded")
	}
	if err := res.Partitioning.Validate(m); err != nil {
		t.Fatalf("infeasible result: %v", err)
	}
	if res.Cost.Balanced > cold.Cost.Balanced*1.0+1e-9 {
		t.Fatalf("warm-started sa-par %g worse than its own hint %g",
			res.Cost.Balanced, cold.Cost.Balanced)
	}
}

// TestSolveConstrained runs the full ladder on a constrained model and
// validates the result against the constraint set.
func TestSolveConstrained(t *testing.T) {
	inst, err := randgen.Generate(randgen.ClassA(8, 24, 12), 7)
	if err != nil {
		t.Fatal(err)
	}
	tbl := inst.Schema.Tables[0]
	qa, err := core.ParseQualifiedAttr(fmt.Sprintf("%s.%s", tbl.Name, tbl.Attributes[0].Name))
	if err != nil {
		t.Fatal(err)
	}
	cons := &core.Constraints{
		PinTxns:     []core.PinTxn{{Txn: inst.Workload.Transactions[0].Name, Site: 0}},
		MaxReplicas: []core.MaxReplicas{{Attr: qa, K: 2}},
	}
	m, err := core.NewModelConstrained(inst, core.DefaultModelOptions(), cons)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), m, testOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partitioning.Validate(m); err != nil {
		t.Fatalf("constraint-violating result: %v", err)
	}
}

// TestSolveTimeLimit: a tiny TimeLimit stops the population gracefully with
// TimedOut set and a feasible best-so-far.
func TestSolveTimeLimit(t *testing.T) {
	inst, err := randgen.Generate(randgen.ClassA(32, 100, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewModel(inst, core.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(nil)
	opts.SA.Sites = 4
	opts.SA.TimeLimit = time.Millisecond
	res, err := Solve(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("TimedOut not set")
	}
	if err := res.Partitioning.Validate(m); err != nil {
		t.Fatalf("infeasible result: %v", err)
	}
}

// TestSolveCancelled: a cancelled context aborts with an error wrapping
// context.Canceled.
func TestSolveCancelled(t *testing.T) {
	m := testModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, m, testOptions(nil)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestOptionsValidate rejects nonsense.
func TestOptionsValidate(t *testing.T) {
	m := testModel(t)
	for _, opts := range []Options{
		{SA: sa.DefaultOptions(3), Replicas: -2},
	} {
		if _, err := Solve(context.Background(), m, opts); err == nil {
			t.Fatalf("options %+v accepted", opts)
		}
	}
}

// BenchmarkSolveRndAt64x200 measures a fixed-seed sa-par solve of the paper's
// largest random instance family — 8 replicas on 8 sites, confined by a
// budget of GOMAXPROCS slots — and reports the population's iterations per
// second. Sweep GOMAXPROCS to see how the replicas scale:
//
//	go test -run '^$' -bench . -cpu 1,2,4,8 ./internal/sapar
func BenchmarkSolveRndAt64x200(b *testing.B) {
	m := classModel(b, randgen.ClassA(64, 200, 10), 1)
	o := sa.DefaultOptions(8)
	o.Seed = 1
	opts := Options{SA: o, Replicas: 8, Budget: conc.NewBudget(runtime.GOMAXPROCS(0))}
	iters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Solve(context.Background(), m, opts)
		if err != nil {
			b.Fatal(err)
		}
		iters += res.Iterations
	}
	b.ReportMetric(float64(iters)/b.Elapsed().Seconds(), "iters/s")
}
