package vpart_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vpart"
)

// TestDecomposeSingleComponentBitIdentical is the equivalence contract of the
// decompose pipeline: on a single-component instance the wrapped solve runs
// the inner solver on exactly the model the direct solve uses, with exactly
// the same seed, and leaves its layout as it is, so partitioning and cost
// breakdown must match bit for bit. The rndAt64x200 row's sa result holds
// an improving single move, so a polish of the one-shard merge would break
// the match.
func TestDecomposeSingleComponentBitIdentical(t *testing.T) {
	rnd64, err := vpart.RandomInstance(vpart.ClassA(64, 200, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name      string
		inst      *vpart.Instance
		sites     int
		seed      int64
		improving bool // the direct result holds an improving single move
	}{
		{"tpcc/3", vpart.TPCC(), 3, 7, false},
		{"rndAt64x200/8", rnd64, 8, 1, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			d, err := vpart.DecomposeInstance(row.inst, true)
			if err != nil {
				t.Fatal(err)
			}
			if d.NumShards() != 1 {
				t.Fatalf("%s decomposed into %d shards, want 1", row.name, d.NumShards())
			}

			direct, err := vpart.Solve(context.Background(), row.inst, vpart.Options{
				Sites: row.sites, Solver: "sa", Seed: row.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if row.improving {
				_, m, p := searchSpace(t, direct, nil, false)
				if improvingMove(m, p) == "" {
					t.Fatal("the direct sa result holds no improving move; the row no longer tells a polished merge apart")
				}
			}
			wrapped, err := vpart.Solve(context.Background(), row.inst, vpart.Options{
				Sites: row.sites, Solver: "sa", Seed: row.seed, Preprocess: vpart.PreprocessDecompose,
			})
			if err != nil {
				t.Fatal(err)
			}
			if wrapped.Solver != "decompose/sa" {
				t.Errorf("wrapped solver = %q, want decompose/sa", wrapped.Solver)
			}
			if len(wrapped.Shards) != 1 {
				t.Fatalf("wrapped solve reports %d shards, want 1", len(wrapped.Shards))
			}
			if !reflect.DeepEqual(direct.Partitioning, wrapped.Partitioning) {
				t.Error("partitionings differ between direct and decompose-wrapped solve")
			}
			if !reflect.DeepEqual(direct.Cost, wrapped.Cost) {
				t.Errorf("cost breakdowns differ:\n direct  %+v\n wrapped %+v", direct.Cost, wrapped.Cost)
			}
			if direct.Seed != wrapped.Seed {
				t.Errorf("seeds differ: direct %d, wrapped %d", direct.Seed, wrapped.Seed)
			}
		})
	}
}

// TestDecomposeEquivalenceRegression pins the decompose pipeline on the
// paper's fixed-seed instances: single-component instances must reproduce the
// direct solve exactly, and every solution's recorded cost must be the model
// evaluation of its partitioning.
func TestDecomposeEquivalenceRegression(t *testing.T) {
	cases := []struct {
		name string
		inst func(t *testing.T) *vpart.Instance
	}{
		{"tpcc", func(t *testing.T) *vpart.Instance { return vpart.TPCC() }},
		{"rndAt8x15", randomInstanceFor(vpart.ClassA(8, 15, 10))},
		{"rndBt16x15", randomInstanceFor(vpart.ClassB(16, 15, 10))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := tc.inst(t)
			d, err := vpart.DecomposeInstance(inst, true)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := vpart.Solve(context.Background(), inst, vpart.Options{Sites: 2, Solver: "sa", Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			wrapped, err := vpart.Solve(context.Background(), inst, vpart.Options{
				Sites: 2, Solver: "sa", Seed: 1, Preprocess: vpart.PreprocessDecompose,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(wrapped.Shards) != d.NumShards() {
				t.Errorf("solution reports %d shards, decomposition has %d", len(wrapped.Shards), d.NumShards())
			}
			if d.NumShards() == 1 {
				if !reflect.DeepEqual(direct.Cost, wrapped.Cost) {
					t.Errorf("single-component cost differs:\n direct  %+v\n wrapped %+v", direct.Cost, wrapped.Cost)
				}
			}
			// The recorded cost must be exactly the model's evaluation of the
			// returned partitioning (merge exactness).
			mo := vpart.DefaultModelOptions()
			recheck, err := vpart.Evaluate(inst, mo, wrapped.Partitioning)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(recheck, wrapped.Cost) {
				t.Errorf("recorded cost is not Evaluate of the partitioning:\n got  %+v\n want %+v", wrapped.Cost, recheck)
			}
		})
	}
}

func randomInstanceFor(params vpart.RandomParams) func(t *testing.T) *vpart.Instance {
	return func(t *testing.T) *vpart.Instance {
		t.Helper()
		inst, err := vpart.RandomInstance(params, 1)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
}

func TestDecomposeMultiComponent(t *testing.T) {
	params, ok := vpart.RandomClass("rndAt32x120c4")
	if !ok {
		t.Fatal("rndAt32x120c4 class missing")
	}
	inst, err := vpart.RandomInstance(params, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var shardTags []string
	sol, err := vpart.Solve(context.Background(), inst, vpart.Options{
		Sites:      4,
		Solver:     "sa",
		Seed:       1,
		Preprocess: vpart.PreprocessDecompose,
		Progress: func(e vpart.Event) {
			if strings.Contains(e.Solver, "decompose/shard[") {
				mu.Lock()
				shardTags = append(shardTags, e.Solver)
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Shards) < 4 {
		t.Fatalf("solved %d shards, want >= 4", len(sol.Shards))
	}
	if len(shardTags) == 0 {
		t.Error("no progress events were re-tagged with shard ids")
	}
	total := 0
	for _, sh := range sol.Shards {
		if sh.Solver != "sa" {
			t.Errorf("shard %d solved by %q, want sa", sh.Shard, sh.Solver)
		}
		if sh.Attrs <= 0 || sh.Txns <= 0 {
			t.Errorf("shard %d has empty dimensions: %+v", sh.Shard, sh)
		}
		total += sh.Iterations
	}
	if total != sol.Iterations {
		t.Errorf("iteration total %d != sum of shard iterations %d", sol.Iterations, total)
	}
	mo := vpart.DefaultModelOptions()
	recheck, err := vpart.Evaluate(inst, mo, sol.Partitioning)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recheck, sol.Cost) {
		t.Errorf("merged cost is not Evaluate of the merged partitioning")
	}
}

func TestDecomposeDefaultsToPortfolioInner(t *testing.T) {
	inst, err := vpart.RandomInstance(vpart.MultiComponentClass(2, 8, 10, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := vpart.Solve(context.Background(), inst, vpart.Options{
		Sites: 2, Solver: "decompose", Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Solver != "decompose/portfolio" {
		t.Errorf("solver = %q, want decompose/portfolio", sol.Solver)
	}
	for _, sh := range sol.Shards {
		if !strings.HasPrefix(sh.Solver, "portfolio/") {
			t.Errorf("shard %d solver = %q, want a portfolio child", sh.Shard, sh.Solver)
		}
	}
}

func TestDecomposeOptionValidation(t *testing.T) {
	inst := vpart.TPCC()
	ctx := context.Background()
	if _, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites: 2, Solver: "decompose", Decompose: vpart.DecomposeOptions{Solver: "decompose"},
	}); err == nil {
		t.Error("recursive decompose accepted")
	}
	if _, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites: 2, Solver: "decompose", Decompose: vpart.DecomposeOptions{Solver: "no-such"},
	}); err == nil {
		t.Error("unknown inner solver accepted")
	}
	if _, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites: 2, Solver: "sa", Preprocess: "shuffle",
	}); err == nil {
		t.Error("unknown preprocess pipeline accepted")
	}
	if _, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites: 2, Solver: "sa", Preprocess: vpart.PreprocessGroup, DisableGrouping: true,
	}); err == nil {
		t.Error("contradictory Preprocess=group with DisableGrouping accepted")
	}
	// The inner solver's own validator must be consulted: QP cannot price
	// the "relevant" write accounting.
	mo := vpart.DefaultModelOptions()
	mo.WriteAccounting = vpart.WriteRelevant
	if _, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites: 2, Solver: "decompose", Model: &mo,
		Decompose: vpart.DecomposeOptions{Solver: "qp"},
	}); err == nil {
		t.Error("decompose with qp inner accepted WriteRelevant accounting")
	}
}

func TestDecomposePreprocessNone(t *testing.T) {
	direct, err := vpart.Solve(context.Background(), vpart.TPCC(), vpart.Options{
		Sites: 2, Solver: "sa", Seed: 5, DisableGrouping: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	viaPreprocess, err := vpart.Solve(context.Background(), vpart.TPCC(), vpart.Options{
		Sites: 2, Solver: "sa", Seed: 5, Preprocess: vpart.PreprocessNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Cost, viaPreprocess.Cost) {
		t.Error("Preprocess=none does not match DisableGrouping")
	}
	if viaPreprocess.AttributeGroups != vpart.TPCC().NumAttributes() {
		t.Errorf("Preprocess=none still grouped: %d groups", viaPreprocess.AttributeGroups)
	}
}

func TestDecomposeCancellation(t *testing.T) {
	inst, err := vpart.RandomInstance(vpart.MultiComponentClass(8, 64, 240, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt time.Time
	timer := time.AfterFunc(10*time.Millisecond, func() {
		cancelledAt = time.Now()
		cancel()
	})
	defer timer.Stop()
	sol, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites: 4, Solver: "decompose",
		Decompose: vpart.DecomposeOptions{Solver: "sa"},
		Seed:      1,
	})
	if err == nil {
		t.Fatal("cancelled decompose solve returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if sol != nil {
		t.Fatal("cancelled solve returned a solution")
	}
	if since := time.Since(cancelledAt); since > time.Second {
		t.Fatalf("decompose needed %v to honour the cancellation", since)
	}
}

// TestDecomposeTimeLimitIsWholeRunBudget: the soft TimeLimit bounds the
// whole decompose solve, so with a serial worker pool the shards dequeued
// after the budget is spent are cut short (rather than each getting a fresh
// full budget).
func TestDecomposeTimeLimitIsWholeRunBudget(t *testing.T) {
	inst, err := vpart.RandomInstance(vpart.MultiComponentClass(4, 128, 800, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := vpart.Solve(context.Background(), inst, vpart.Options{
		Sites:     4,
		Solver:    "decompose",
		Decompose: vpart.DecomposeOptions{Solver: "sa", Workers: 1},
		Seed:      1,
		TimeLimit: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.TimedOut {
		t.Error("whole-run budget smaller than the natural solve time did not mark the solution TimedOut")
	}
	cut := 0
	for _, sh := range sol.Shards {
		if sh.TimedOut {
			cut++
		}
	}
	if cut == 0 {
		t.Error("no shard was cut short by the shared budget")
	}
}

// TestDecomposePreprocessHonoursExplicitInner: a non-empty Decompose.Solver
// wins over the wrapped Options.Solver under Preprocess=decompose.
func TestDecomposePreprocessHonoursExplicitInner(t *testing.T) {
	inst, err := vpart.RandomInstance(vpart.MultiComponentClass(2, 8, 10, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := vpart.Solve(context.Background(), inst, vpart.Options{
		Sites:      2,
		Solver:     "portfolio",
		Preprocess: vpart.PreprocessDecompose,
		Decompose:  vpart.DecomposeOptions{Solver: "sa"},
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Solver != "decompose/sa" {
		t.Errorf("solver = %q, want decompose/sa (explicit inner solver ignored)", sol.Solver)
	}
}

// TestDecomposeConstrainedMultiComponent solves a genuinely multi-component
// instance under constraints through the decompose meta-solver: shard-local
// constraints keep the split and hold per shard, while a cross-component
// colocation welds the affected components into one shard. Either way the
// merged solution satisfies the full set.
func TestDecomposeConstrainedMultiComponent(t *testing.T) {
	ctx := context.Background()
	inst, err := vpart.RandomInstance(vpart.MultiComponentClass(4, 8, 24, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Shard-local constraints: pin the first transaction, forbid one
	// attribute of the first table on site 1.
	txn := inst.Workload.Transactions[0].Name
	tbl := inst.Schema.Tables[0]
	local := &vpart.Constraints{
		PinTxns:     []vpart.PinTxn{{Txn: txn, Site: 1}},
		ForbidAttrs: []vpart.ForbidAttr{{Attr: vpart.QualifiedAttr{Table: tbl.Name, Attr: tbl.Attributes[0].Name}, Site: 0}},
	}
	sol, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites: 2, Solver: "decompose", Seed: 1, Constraints: local,
		Decompose: vpart.DecomposeOptions{Solver: "sa"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Shards) < 2 {
		t.Fatalf("shard-local constraints collapsed the split: %d shard(s)", len(sol.Shards))
	}
	if err := local.Check(sol.Model, sol.Partitioning); err != nil {
		t.Fatalf("merged decompose solution violates constraints: %v", err)
	}

	// Cross-component colocation: tie an attribute of the first table to one
	// of the last table (different components in this class) — the split
	// must weld them into fewer shards and the merged layout must keep the
	// pair's site sets identical.
	last := inst.Schema.Tables[len(inst.Schema.Tables)-1]
	qaA := vpart.QualifiedAttr{Table: tbl.Name, Attr: tbl.Attributes[0].Name}
	qaB := vpart.QualifiedAttr{Table: last.Name, Attr: last.Attributes[0].Name}
	welded := &vpart.Constraints{Colocate: []vpart.Colocate{{A: qaA, B: qaB}}}
	sol2, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites: 2, Solver: "decompose", Seed: 1, Constraints: welded,
		Decompose: vpart.DecomposeOptions{Solver: "sa"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol2.Shards) >= len(sol.Shards) {
		t.Fatalf("cross-component colocation did not weld: %d shard(s), was %d", len(sol2.Shards), len(sol.Shards))
	}
	if err := welded.Check(sol2.Model, sol2.Partitioning); err != nil {
		t.Fatalf("welded decompose solution violates the colocation: %v", err)
	}

	// A capacity collapses the split to one shard.
	capped := &vpart.Constraints{SiteCapacities: []vpart.SiteCapacity{{Site: 0, Bytes: 1 << 20}}}
	sol3, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites: 2, Solver: "decompose", Seed: 1, Constraints: capped,
		Decompose: vpart.DecomposeOptions{Solver: "sa"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol3.Shards) != 1 {
		t.Fatalf("capacity did not collapse the split: %d shard(s)", len(sol3.Shards))
	}
	if err := capped.Check(sol3.Model, sol3.Partitioning); err != nil {
		t.Fatalf("capped decompose solution violates the capacity: %v", err)
	}
}
