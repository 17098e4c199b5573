package sa

import (
	"context"
	"math/rand"
	"testing"

	"vpart/internal/core"
	"vpart/internal/randgen"
	"vpart/internal/tpcc"
)

func benchModel(b *testing.B, inst *core.Instance) *core.Model {
	b.Helper()
	m, err := core.NewModel(inst, core.DefaultModelOptions())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkSolveTPCC3Sites(b *testing.B) {
	m := benchModel(b, tpcc.Instance())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := DefaultOptions(3)
		opts.Seed = int64(i + 1)
		if _, err := Solve(context.Background(), m, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveLargeRandomInstance(b *testing.B) {
	inst, err := randgen.Generate(randgen.ClassA(32, 100, 10), 1)
	if err != nil {
		b.Fatal(err)
	}
	m := benchModel(b, inst)
	b.ReportMetric(float64(m.NumAttrs()), "attrs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := DefaultOptions(4)
		opts.Seed = int64(i + 1)
		if _, err := Solve(context.Background(), m, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRows are the instances the greedy-pass and move benchmarks run on:
// TPC-C, whose 5 transactions hide how a pass scales, and a wide instance
// shaped like one shard of the cold benchmark workload.
func benchRows(b *testing.B) []struct {
	name string
	m    *core.Model
} {
	b.Helper()
	wide, err := randgen.Generate(randgen.ClassA(16, 50, 10), 1)
	if err != nil {
		b.Fatal(err)
	}
	return []struct {
		name string
		m    *core.Model
	}{
		{"tpcc", benchModel(b, tpcc.Instance())},
		{"rndAt16x50", benchModel(b, wide)},
	}
}

// BenchmarkFindSolutionYGivenX times one greedy y-pass (findSolution with x
// fixed) over a round-robin transaction assignment on 4 sites.
func BenchmarkFindSolutionYGivenX(b *testing.B) {
	for _, row := range benchRows(b) {
		b.Run(row.name, func(b *testing.B) {
			m := row.m
			s := newSolver(m, DefaultOptions(4))
			p := core.NewPartitioning(m.NumTxns(), m.NumAttrs(), 4)
			for t := range p.TxnSite {
				p.TxnSite[t] = t % 4
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.solveYGivenX(p)
			}
		})
	}
}

// BenchmarkFindSolutionXGivenY times one greedy x-pass (findSolution with y
// fixed) over the layout a y-pass builds for a random transaction
// assignment on 4 sites.
func BenchmarkFindSolutionXGivenY(b *testing.B) {
	for _, row := range benchRows(b) {
		b.Run(row.name, func(b *testing.B) {
			m := row.m
			s := newSolver(m, DefaultOptions(4))
			rng := rand.New(rand.NewSource(1))
			p := core.NewPartitioning(m.NumTxns(), m.NumAttrs(), 4)
			s.randomX(rng, p)
			s.findSolution(p, "x")
			q := p.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.CopyFrom(p)
				s.solveXGivenY(q)
			}
		})
	}
}

// BenchmarkEvaluateNeighbourhoodMove prices one neighbourhood move the way
// the pre-Evaluator hot loop did — clone, mutate, repair, full re-evaluate —
// and is kept as the comparison baseline for BenchmarkPerturbApplyUndo.
func BenchmarkEvaluateNeighbourhoodMove(b *testing.B) {
	m := benchModel(b, tpcc.Instance())
	opts := DefaultOptions(4)
	res, err := Solve(context.Background(), m, opts)
	if err != nil {
		b.Fatal(err)
	}
	p := res.Partitioning
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := p.Clone()
		c.TxnSite[i%m.NumTxns()] = (i + 1) % 4
		c.Repair(m)
		if cost := m.Evaluate(c); cost.Objective <= 0 {
			b.Fatal("bad cost")
		}
	}
}

// BenchmarkSolveRndAt64x200 measures a full SA solve of the paper's largest
// random instance family — the headline workload of the incremental
// evaluator refactor, which raised it from 993 to 6,985 iterations per
// second on one core (recorded in commit 405460f).
func BenchmarkSolveRndAt64x200(b *testing.B) {
	inst, err := randgen.Generate(randgen.ClassA(64, 200, 10), 1)
	if err != nil {
		b.Fatal(err)
	}
	m := benchModel(b, inst)
	iters, secs := 0, 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := DefaultOptions(8)
		opts.Seed = int64(i + 1)
		res, err := Solve(context.Background(), m, opts)
		if err != nil {
			b.Fatal(err)
		}
		iters += res.Iterations
		secs += res.Runtime.Seconds()
	}
	b.ReportMetric(float64(iters)/secs, "iters/sec")
}

// BenchmarkPerturbApplyUndo measures the steady state of the move-based
// inner loop — propose a neighbourhood batch against the evaluator, then
// reject it — and reports its allocations (which must be zero once warm).
func BenchmarkPerturbApplyUndo(b *testing.B) {
	for _, row := range benchRows(b) {
		b.Run(row.name, func(b *testing.B) {
			m := row.m
			s := newSolver(m, DefaultOptions(4))
			rng := rand.New(rand.NewSource(1))
			p := core.NewPartitioning(m.NumTxns(), m.NumAttrs(), 4)
			s.randomX(rng, p)
			s.findSolution(p, "x")
			p.Repair(m)
			ev, err := core.NewEvaluator(m, p)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 100; i++ { // warm up buffer capacities
				s.perturb(rng, ev)
				ev.Undo()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.perturb(rng, ev)
				ev.Undo()
			}
		})
	}
}
