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
	"vpart/internal/ingest"
	"vpart/internal/randgen"
	"vpart/internal/seeds"
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

// BenchmarkPortfolioWarmLineup measures one warm portfolio solve from a
// fixed layout, the per-resolve work of a live session. The hint-from-cold
// rows hand the layout over as a cold solve's result (WarmStart false), so
// the full race runs: sa+warm[0], the cold restarts sa[1..3] and the warm
// sa-par child. The hint-from-warm rows mark it as coming out of a warm
// start, so only the two warm children run. iters/op is the race's total SA
// inner iterations; every op of a row solves with seed 1, so it repeats at
// any -benchtime. The ycsb-2048 rows solve the live YCSB stream's instance
// grown by 29 epochs (see BenchmarkSessionApply), the resolve of a live
// session on that stream.
func BenchmarkPortfolioWarmLineup(b *testing.B) {
	ctx := context.Background()
	rnd, err := vpart.RandomInstance(vpart.ClassA(16, 50, 10), 1)
	if err != nil {
		b.Fatal(err)
	}
	ycsb, _ := grownYCSB(b, 29)
	for _, tc := range []struct {
		name  string
		inst  *vpart.Instance
		sites int
	}{
		{"tpcc/3", vpart.TPCC(), 3},
		{"rndAt16x50/4", rnd, 4},
		{"ycsb-2048/4", ycsb, 4},
	} {
		layout, err := vpart.Solve(ctx, tc.inst, vpart.Options{Sites: tc.sites, Solver: "sa", Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range []struct {
			name string
			warm bool
		}{{"hint-from-cold", false}, {"hint-from-warm", true}} {
			hint := *layout
			hint.WarmStart = row.warm
			b.Run(tc.name+"/"+row.name, func(b *testing.B) {
				iters := 0
				for i := 0; i < b.N; i++ {
					sol, err := vpart.Solve(ctx, tc.inst, vpart.Options{
						Sites: tc.sites, Solver: "portfolio", Seed: 1, Warm: &hint,
					})
					if err != nil {
						b.Fatal(err)
					}
					iters += sol.Iterations
				}
				b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
			})
		}
	}
}

// BenchmarkColdLineup keeps the cold lineup curve: the 8 instances of the
// cold benchmark workload (rndAt128x400c8 at workload seed 1) solved cold
// through decompose on 4 sites with solver seed 1, under four shard
// lineups: the default portfolio (4 polished SA runs), the portfolio with a
// 4-replica sa-par child (SAPar: 4), a 2-SA portfolio (SASeeds: 2) and
// sa-par alone (Decompose.Solver "sa-par"). Each row reports the mean
// balanced cost over the instances and the process CPU seconds per solve, so
// a change to a solver or to the polish re-measures the trade-off the
// default rests on. One op solves all 8 instances.
func BenchmarkColdLineup(b *testing.B) {
	ctx := context.Background()
	var insts []*vpart.Instance
	for i := 0; i < 8; i++ {
		inst, err := vpart.RandomInstance(vpart.MultiComponentClass(8, 128, 400, 10), seeds.Derive(1, i))
		if err != nil {
			b.Fatal(err)
		}
		insts = append(insts, inst)
	}
	for _, row := range []struct {
		name string
		opts vpart.Options
	}{
		{"default", vpart.Options{}},
		{"sa-par-4", vpart.Options{Portfolio: vpart.PortfolioOptions{SAPar: 4}}},
		{"sa-seeds-2", vpart.Options{Portfolio: vpart.PortfolioOptions{SASeeds: 2}}},
		{"decompose-sa-par", vpart.Options{Decompose: vpart.DecomposeOptions{Solver: "sa-par"}}},
	} {
		b.Run(row.name, func(b *testing.B) {
			cost := 0.0
			cpu0 := processCPUSeconds(b)
			for i := 0; i < b.N; i++ {
				for _, inst := range insts {
					opts := row.opts
					opts.Sites, opts.Solver, opts.Seed = 4, "decompose", 1
					sol, err := vpart.Solve(ctx, inst, opts)
					if err != nil {
						b.Fatal(err)
					}
					cost += sol.Cost.Balanced
				}
			}
			solves := float64(b.N * len(insts))
			b.ReportMetric(cost/solves, "cost")
			b.ReportMetric((processCPUSeconds(b)-cpu0)/solves, "cpu-s/solve")
		})
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
// incremental ApplyMoveTxn+Undo round trip — from full replication on TPC-C
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

// BenchmarkSessionApply measures Session.Apply, the delta apply plus the
// model compile, on two bases: the live YCSB stream's instance grown to
// 2,048 shapes by 29 epochs of 8,192 events (live-ycsb's pipeline settings,
// workload seed 1), and the first rndAt128x400c8 instance. The 1-op rows
// scale one query: a 1-op delta still compiles the whole instance. The
// epoch row applies the 30th epoch's compacted delta, past the early
// epochs whose deltas rescale most tracked shapes; ops/delta reports its
// size. Each iteration applies to a fresh session, built outside the timer.
func BenchmarkSessionApply(b *testing.B) {
	grown, epoch := grownYCSB(b, 29)
	cold, err := vpart.RandomInstance(vpart.MultiComponentClass(8, 128, 400, 10), seeds.Derive(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	scaleOne := func(inst *vpart.Instance) vpart.WorkloadDelta {
		tx := inst.Workload.Transactions[len(inst.Workload.Transactions)-1]
		return vpart.WorkloadDelta{Ops: []vpart.DeltaOp{
			vpart.ScaleFreq{Txn: tx.Name, Query: tx.Queries[0].Name, Factor: 2},
		}}
	}
	for _, row := range []struct {
		name  string
		inst  *vpart.Instance
		delta vpart.WorkloadDelta
	}{
		{"ycsb-2048/1-op", grown, scaleOne(grown)},
		{"ycsb-2048/epoch", grown, epoch},
		{"rndAt128x400c8/1-op", cold, scaleOne(cold)},
	} {
		b.Run(row.name, func(b *testing.B) {
			opts := vpart.Options{Sites: 4, Solver: "portfolio", Seed: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sess, err := vpart.NewSession(row.inst, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := sess.Apply(row.delta); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(row.delta.Ops)), "ops/delta")
		})
	}
}

// grownYCSB folds epochs epochs of the live YCSB stream into its base
// instance and returns the grown instance with the next epoch's delta.
func grownYCSB(b *testing.B, epochs int) (*vpart.Instance, vpart.WorkloadDelta) {
	b.Helper()
	stream, err := randgen.NewYCSB(randgen.YCSBParams{Shapes: 1 << 16}, 1)
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := ingest.New(stream.Base(), ingest.Config{
		Shards: 1, EpochEvents: 8192, TopK: 2048,
		SketchWidth: 1 << 15, SketchDepth: 4, ScaleTol: 0.2,
	})
	if err != nil {
		b.Fatal(err)
	}
	inst := stream.Base()
	events := make([]ingest.Event, 8192)
	for e := 0; ; e++ {
		stream.Fill(events)
		closed, err := pipe.Ingest(events)
		if err != nil || len(closed) != 1 {
			b.Fatalf("epoch %d: %d epochs closed, error %v", e+1, len(closed), err)
		}
		if e == epochs {
			return inst, closed[0].Delta
		}
		if inst, err = vpart.ApplyDelta(inst, closed[0].Delta); err != nil {
			b.Fatal(err)
		}
	}
}
