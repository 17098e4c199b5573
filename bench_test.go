package vpart_test

// Benchmarks, one per table of the paper's evaluation (Section 5) plus
// ablation and micro benchmarks. The table benchmarks run the experiment
// harness in its quick configuration; `go run ./cmd/vpart-experiments -table
// all` runs the full configuration and prints each table.

import (
	"context"
	"testing"
	"time"

	"vpart"
	"vpart/internal/experiments"
)

// tpccConstraints is a representative constraint set for the constrained
// benchmarks: a transaction pin, an attribute pin, a forbid and a generous
// capacity, so every constraint code path is active.
func tpccConstraints(tb testing.TB, inst *vpart.Instance) *vpart.Constraints {
	tb.Helper()
	txn := inst.Workload.Transactions[0].Name
	tbl := inst.Schema.Tables[0]
	return &vpart.Constraints{
		PinTxns:        []vpart.PinTxn{{Txn: txn, Site: 1}},
		PinAttrs:       []vpart.PinAttr{{Attr: vpart.QualifiedAttr{Table: tbl.Name, Attr: tbl.Attributes[0].Name}, Site: 0}},
		ForbidAttrs:    []vpart.ForbidAttr{{Attr: vpart.QualifiedAttr{Table: tbl.Name, Attr: tbl.Attributes[1].Name}, Site: 3}},
		SiteCapacities: []vpart.SiteCapacity{{Site: 2, Bytes: 1 << 20}},
	}
}

// benchConfig is the harness configuration used by the table benchmarks:
// quick instance lists with a short per-solve QP limit so a full -bench=.
// run stays in the minutes range.
func benchConfig() experiments.Config {
	return experiments.Config{
		Quick:       true,
		Seed:        1,
		QPTimeLimit: 3 * time.Second,
	}
}

// BenchmarkTable1ParameterSweep regenerates Table 1: the influence of the six
// random-instance parameters on the SA solver's cost.
func BenchmarkTable1ParameterSweep(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if tbl.NumRows() != 18 {
			b.Fatalf("unexpected row count %d", tbl.NumRows())
		}
	}
}

// BenchmarkTable3QPvsSA regenerates Table 3: exact QP versus the SA heuristic
// on TPC-C and the random instance classes.
func BenchmarkTable3QPvsSA(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Table3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if tbl.NumRows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable4TPCCPartitioning regenerates Table 4: the TPC-C layout
// produced by the QP solver for three sites.
func BenchmarkTable4TPCCPartitioning(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Table4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty layout")
		}
	}
}

// BenchmarkTable5Replication regenerates Table 5: disjoint versus replicated
// partitioning.
func BenchmarkTable5Replication(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Table5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if tbl.NumRows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable6LocalVsRemote regenerates Table 6: local (p = 0) versus
// remote (p > 0) partition placement.
func BenchmarkTable6LocalVsRemote(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Table6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if tbl.NumRows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkLatencyExtension exercises the Appendix A latency extension
// (ablation).
func BenchmarkLatencyExtension(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LatencyAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteAccountingAblation compares the three A_W accounting modes of
// Section 2.1 (ablation).
func BenchmarkWriteAccountingAblation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WriteAccountingAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupingAblation measures the effect of the reasonable-cuts
// attribute grouping on the QP solver (ablation).
func BenchmarkGroupingAblation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GroupingAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLambdaSweep measures the cost/load-balance trade-off (ablation).
func BenchmarkLambdaSweep(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LambdaSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorValidation cross-checks the cost model against the
// execution simulator.
func BenchmarkSimulatorValidation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SimulatorValidation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro benchmarks -------------------------------------------------------

// BenchmarkCostEvaluationTPCC measures a single evaluation of the analytical
// cost model on TPC-C (the hot path of the SA solver).
func BenchmarkCostEvaluationTPCC(b *testing.B) {
	inst := vpart.TPCC()
	m, err := vpart.NewModel(inst, vpart.DefaultModelOptions())
	if err != nil {
		b.Fatal(err)
	}
	p := vpart.FullReplicationPartitioning(m, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Evaluate(p)
		if c.Objective <= 0 {
			b.Fatal("bad cost")
		}
	}
}

// BenchmarkAttributeGroupingTPCC measures the reasonable-cuts preprocessing.
func BenchmarkAttributeGroupingTPCC(b *testing.B) {
	inst := vpart.TPCC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vpart.GroupAttributes(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSASolverTPCC measures a full SA solve of TPC-C onto 3 sites.
func BenchmarkSASolverTPCC(b *testing.B) {
	inst := vpart.TPCC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := vpart.Solve(context.Background(), inst, vpart.Options{Sites: 3, Solver: "sa", Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Partitioning == nil {
			b.Fatal("no solution")
		}
	}
}

// BenchmarkQPSolverTPCC measures a full exact QP solve of TPC-C onto 2 sites.
func BenchmarkQPSolverTPCC(b *testing.B) {
	inst := vpart.TPCC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := vpart.Solve(context.Background(), inst, vpart.Options{
			Sites: 2, Solver: "qp", SeedWithSA: true, TimeLimit: time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Partitioning == nil {
			b.Fatal("no solution")
		}
	}
}

// BenchmarkSimulatorTPCC measures one simulated execution of the TPC-C
// workload against a 3-site partitioned cluster.
func BenchmarkSimulatorTPCC(b *testing.B) {
	inst := vpart.TPCC()
	mo := vpart.DefaultModelOptions()
	sol, err := vpart.Solve(context.Background(), inst, vpart.Options{Sites: 3, Solver: "sa", Model: &mo})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vpart.Simulate(context.Background(), inst, mo, sol.Partitioning, vpart.SimOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomInstanceGeneration measures the Table 2 class generator.
func BenchmarkRandomInstanceGeneration(b *testing.B) {
	params := vpart.ClassA(16, 100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vpart.RandomInstance(params, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatorApplyTPCC measures one incremental Apply+Undo round trip
// of a transaction move on TPC-C — the hot operation of the SA inner loop —
// for comparison with BenchmarkCostEvaluationTPCC (the full re-evaluation it
// replaces). Steady state must be allocation-free.
func BenchmarkEvaluatorApplyTPCC(b *testing.B) {
	inst := vpart.TPCC()
	m, err := vpart.NewModel(inst, vpart.DefaultModelOptions())
	if err != nil {
		b.Fatal(err)
	}
	ev, err := vpart.NewEvaluator(m, vpart.FullReplicationPartitioning(m, 4))
	if err != nil {
		b.Fatal(err)
	}
	nT := m.NumTxns()
	ev.ApplyMoveTxn(0, 1) // warm the journal capacity
	ev.Undo()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.ApplyMoveTxn(i%nT, (i+1)%4)
		ev.Undo()
	}
}

// TestEvaluatorApplyFasterThanEvaluate times, with the benchmark harness,
// the two operations BenchmarkCostEvaluationTPCC and
// BenchmarkEvaluatorApplyTPCC measure — one full Model.Evaluate and one
// incremental MoveTxn apply+undo round trip — from full replication on TPC-C
// (3 sites) and rndAt64x200 (8 sites). The incremental round trip must be
// the faster of the two.
func TestEvaluatorApplyFasterThanEvaluate(t *testing.T) {
	rnd, err := vpart.RandomInstance(vpart.ClassA(64, 200, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		inst  *vpart.Instance
		sites int
	}{
		{"tpcc", vpart.TPCC(), 3},
		{"rndAt64x200", rnd, 8},
	} {
		m, err := vpart.NewModel(c.inst, vpart.DefaultModelOptions())
		if err != nil {
			t.Fatal(err)
		}
		p := vpart.FullReplicationPartitioning(m, c.sites)
		evaluate := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if m.Evaluate(p).Objective <= 0 {
					b.Fatal("bad cost")
				}
			}
		})
		ev, err := vpart.NewEvaluator(m, p)
		if err != nil {
			t.Fatal(err)
		}
		nT := m.NumTxns()
		apply := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev.ApplyMoveTxn(i%nT, (i+1)%c.sites)
				ev.Undo()
			}
		})
		if apply.NsPerOp() >= evaluate.NsPerOp() {
			t.Errorf("%s: incremental apply+undo (%d ns) not faster than full Evaluate (%d ns)",
				c.name, apply.NsPerOp(), evaluate.NsPerOp())
		}
	}
}

// BenchmarkEvaluatorApplyConstrainedTPCC is the constrained twin of
// BenchmarkEvaluatorApplyTPCC and the hot-loop guard of the constraints API:
// with a compiled constraint set the Allow checks plus Apply+Undo must stay
// allocation-free (asserted, not just reported — the benchmark fails on any
// steady-state allocation).
func BenchmarkEvaluatorApplyConstrainedTPCC(b *testing.B) {
	inst := vpart.TPCC()
	m, err := vpart.NewModelConstrained(inst, vpart.DefaultModelOptions(), tpccConstraints(b, inst))
	if err != nil {
		b.Fatal(err)
	}
	ev, err := vpart.NewEvaluator(m, vpart.FullReplicationPartitioning(m, 4))
	if err != nil {
		b.Fatal(err)
	}
	nT := m.NumTxns()
	ev.ApplyMoveTxn(1, 1) // warm the journal capacity
	ev.Undo()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, s := i%nT, (i+1)%4
		if ev.AllowMoveTxn(t, s) {
			ev.ApplyMoveTxn(t, s)
		}
		_ = ev.AllowAddReplica(i%m.NumAttrs(), s)
		ev.Undo()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, func() {
		if ev.AllowMoveTxn(1, 1) {
			ev.ApplyMoveTxn(1, 1)
		}
		ev.Undo()
	}); allocs != 0 {
		b.Fatalf("constrained hot loop allocates %.1f per iteration, want 0", allocs)
	}
}

// BenchmarkSASolverConstrainedTPCC measures a full constrained SA solve —
// the end-to-end cost of the constraints machinery relative to
// BenchmarkSASolverTPCC.
func BenchmarkSASolverConstrainedTPCC(b *testing.B) {
	inst := vpart.TPCC()
	cons := tpccConstraints(b, inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := vpart.Solve(context.Background(), inst, vpart.Options{
			Sites: 4, Solver: "sa", Seed: int64(i + 1), Constraints: cons,
		})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Partitioning == nil {
			b.Fatal("no solution")
		}
	}
}
