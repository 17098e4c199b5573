package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vpart/internal/core"
	"vpart/internal/sa"
	"vpart/internal/tpcc"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

func tpccModel(t *testing.T) *core.Model {
	t.Helper()
	m, err := core.NewModel(tpcc.Instance(), core.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMeasurementsMatchCostModelSingleSite: with everything on one site the
// simulator must measure exactly the analytical A_R and A_W and no transfer.
func TestMeasurementsMatchCostModelSingleSite(t *testing.T) {
	m := tpccModel(t)
	p := core.SingleSite(m, 1)
	want := m.Evaluate(p)

	meas, cl, err := Run(context.Background(), m, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(meas.ReadBytes, want.ReadAccess) {
		t.Errorf("ReadBytes = %g, model A_R = %g", meas.ReadBytes, want.ReadAccess)
	}
	if !almostEqual(meas.WriteBytes, want.WriteAccess) {
		t.Errorf("WriteBytes = %g, model A_W = %g", meas.WriteBytes, want.WriteAccess)
	}
	if meas.TransferBytes != 0 {
		t.Errorf("TransferBytes = %g, want 0 on a single site", meas.TransferBytes)
	}
	if !almostEqual(meas.PenalisedCost, want.Objective) {
		t.Errorf("PenalisedCost = %g, model objective = %g", meas.PenalisedCost, want.Objective)
	}
	if meas.Transactions != m.NumTxns() {
		t.Errorf("executed %d transactions, want %d", meas.Transactions, m.NumTxns())
	}
	if cl.NumSites() != 1 {
		t.Errorf("cluster has %d sites", cl.NumSites())
	}
}

// TestMeasurementsMatchCostModelPartitioned validates the central claim the
// simulator exists for: on a real multi-site partitioning (found by the SA
// solver) the measured bytes equal the analytical cost model exactly.
func TestMeasurementsMatchCostModelPartitioned(t *testing.T) {
	m := tpccModel(t)
	res, err := sa.Solve(context.Background(), m, sa.DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Partitioning
	want := m.Evaluate(p)

	meas, _, err := Run(context.Background(), m, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(meas.ReadBytes, want.ReadAccess) {
		t.Errorf("ReadBytes = %g, model A_R = %g", meas.ReadBytes, want.ReadAccess)
	}
	if !almostEqual(meas.WriteBytes, want.WriteAccess) {
		t.Errorf("WriteBytes = %g, model A_W = %g", meas.WriteBytes, want.WriteAccess)
	}
	if !almostEqual(meas.TransferBytes, want.Transfer) {
		t.Errorf("TransferBytes = %g, model B = %g", meas.TransferBytes, want.Transfer)
	}
	if !almostEqual(meas.PenalisedCost, want.Objective) {
		t.Errorf("PenalisedCost = %g, model objective (4) = %g", meas.PenalisedCost, want.Objective)
	}
	if len(meas.SiteBytes) != 3 {
		t.Fatalf("SiteBytes has %d entries", len(meas.SiteBytes))
	}
	for s := range meas.SiteBytes {
		if !almostEqual(meas.SiteBytes[s], want.SiteWork[s]) {
			t.Errorf("site %d bytes = %g, model work = %g", s, meas.SiteBytes[s], want.SiteWork[s])
		}
	}
	if want.Transfer > 0 && meas.NetworkMessages == 0 {
		t.Error("transfer happened but no network messages recorded")
	}
}

func TestRoundsScaleLinearly(t *testing.T) {
	m := tpccModel(t)
	p := core.SingleSite(m, 1)
	one, _, err := Run(context.Background(), m, p, Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	three, _, err := Run(context.Background(), m, p, Options{Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(three.ReadBytes, 3*one.ReadBytes) || !almostEqual(three.WriteBytes, 3*one.WriteBytes) {
		t.Fatalf("3 rounds should triple the bytes: %+v vs %+v", three, one)
	}
	if three.Transactions != 3*one.Transactions {
		t.Fatalf("transactions %d, want %d", three.Transactions, 3*one.Transactions)
	}
}

// TestConcurrentMatchesSequential launches several runs at once on one shared
// model and layout and checks each measures exactly what a lone run does.
// Under -race it also checks that concurrent callers (vpart.Simulate from
// several goroutines) share nothing mutable.
func TestConcurrentMatchesSequential(t *testing.T) {
	m := tpccModel(t)
	res, err := sa.Solve(context.Background(), m, sa.DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := Run(context.Background(), m, res.Partitioning, Options{Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, par := range runConcurrently(t, 4, m, res.Partitioning, Options{Rounds: 2}) {
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("concurrent run %d measured different totals:\nseq: %+v\npar: %+v", i, seq, par)
		}
	}
}

func TestRunRejectsInfeasiblePartitioning(t *testing.T) {
	m := tpccModel(t)
	p := core.NewPartitioning(m.NumTxns(), m.NumAttrs(), 2) // nothing placed
	if _, _, err := Run(context.Background(), m, p, Options{}); err == nil {
		t.Fatal("infeasible partitioning accepted")
	}
}

// TestRunRejectsNegativeRounds: a negative round count is an error, and zero
// means one round.
func TestRunRejectsNegativeRounds(t *testing.T) {
	m := tpccModel(t)
	p := core.SingleSite(m, 1)
	if _, _, err := Run(context.Background(), m, p, Options{Rounds: -2}); err == nil {
		t.Fatal("negative Rounds accepted")
	}
	zero, _, err := Run(context.Background(), m, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	one, _, err := Run(context.Background(), m, p, Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero, one) {
		t.Fatalf("Rounds 0 measured %+v, Rounds 1 %+v", zero, one)
	}
}

// TestRandomPartitioningsMatchModel is a property-style check on random
// feasible partitionings of a small random instance.
func TestRandomPartitioningsMatchModel(t *testing.T) {
	inst := tpcc.Instance()
	m, err := core.NewModel(inst, core.ModelOptions{Penalty: 4, Lambda: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		sites := 2 + rng.Intn(3)
		p := core.NewPartitioning(m.NumTxns(), m.NumAttrs(), sites)
		for tt := range p.TxnSite {
			p.TxnSite[tt] = rng.Intn(sites)
		}
		for a := range p.AttrSites {
			p.AttrSites[a][rng.Intn(sites)] = true
			if rng.Intn(4) == 0 {
				p.AttrSites[a][rng.Intn(sites)] = true
			}
		}
		p.Repair(m)
		want := m.Evaluate(p)
		meas, _, err := Run(context.Background(), m, p, Options{RowsPerTable: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(meas.ReadBytes, want.ReadAccess) ||
			!almostEqual(meas.WriteBytes, want.WriteAccess) ||
			!almostEqual(meas.TransferBytes, want.Transfer) {
			t.Fatalf("trial %d: measured (%g,%g,%g) vs model (%g,%g,%g)", trial,
				meas.ReadBytes, meas.WriteBytes, meas.TransferBytes,
				want.ReadAccess, want.WriteAccess, want.Transfer)
		}
	}
}

func TestRunHonoursContextCancellation(t *testing.T) {
	m := tpccModel(t)
	p := core.SingleSite(m, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Run(ctx, m, p, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}
