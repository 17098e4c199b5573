package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"vpart/internal/core"
	"vpart/internal/randgen"
)

// randomConformanceInstance draws a random instance class and generates it.
// All generator statistics are small integers, so every measured and modelled
// quantity is an integer-valued float64 and sums are exact regardless of
// accumulation order — which is what makes byte-for-byte comparison with the
// model sound, although the simulator adds the terms in another order.
func randomConformanceInstance(t *testing.T, rng *rand.Rand) *core.Instance {
	t.Helper()
	p := randgen.Params{
		Name:                 "conformance",
		Transactions:         1 + rng.Intn(12),
		Tables:               1 + rng.Intn(6),
		MaxQueriesPerTxn:     1 + rng.Intn(3),
		UpdatePercent:        rng.Intn(101),
		MaxAttrsPerTable:     1 + rng.Intn(8),
		MaxTableRefsPerQuery: 1 + rng.Intn(3),
		MaxAttrRefsPerQuery:  1 + rng.Intn(8),
		AttrWidths:           []int{2, 4, 8},
		MaxRowsPerQuery:      1 + rng.Intn(6),
	}
	// Some trials force a multi-component access graph, the shape the
	// decomposition pipeline splits.
	if c := 1 + rng.Intn(3); c > 1 && c <= p.Tables && c <= p.Transactions {
		p.Components = c
	}
	inst, err := randgen.Generate(p, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// randomFeasiblePartitioning builds a random feasible layout: random
// transaction sites, random replica sets, then a repair pass.
func randomFeasiblePartitioning(rng *rand.Rand, m *core.Model, sites int) *core.Partitioning {
	p := core.NewPartitioning(m.NumTxns(), m.NumAttrs(), sites)
	for t := range p.TxnSite {
		p.TxnSite[t] = rng.Intn(sites)
	}
	for a := range p.AttrSites {
		for s := 0; s < sites; s++ {
			p.AttrSites[a][s] = rng.Intn(3) == 0
		}
	}
	p.Repair(m)
	return p
}

// requireExact asserts the simulator conformance contract: under the paper's
// "access all attributes" accounting the measured bytes equal the analytical
// model byte for byte (scaled by the number of rounds).
func requireExact(t *testing.T, trial int, meas *Measured, want core.Cost, rounds float64) {
	t.Helper()
	if meas.ReadBytes != rounds*want.ReadAccess {
		t.Fatalf("trial %d: ReadBytes %v != %v", trial, meas.ReadBytes, rounds*want.ReadAccess)
	}
	if meas.WriteBytes != rounds*want.WriteAccess {
		t.Fatalf("trial %d: WriteBytes %v != %v", trial, meas.WriteBytes, rounds*want.WriteAccess)
	}
	if meas.TransferBytes != rounds*want.Transfer {
		t.Fatalf("trial %d: TransferBytes %v != %v", trial, meas.TransferBytes, rounds*want.Transfer)
	}
	if meas.PenalisedCost != rounds*want.Objective {
		t.Fatalf("trial %d: PenalisedCost %v != %v", trial, meas.PenalisedCost, rounds*want.Objective)
	}
	if len(meas.SiteBytes) != len(want.SiteWork) {
		t.Fatalf("trial %d: %d sites measured, model has %d", trial, len(meas.SiteBytes), len(want.SiteWork))
	}
	for s := range want.SiteWork {
		if meas.SiteBytes[s] != rounds*want.SiteWork[s] {
			t.Fatalf("trial %d: site %d bytes %v != %v", trial, s, meas.SiteBytes[s], rounds*want.SiteWork[s])
		}
	}
}

// TestSimulatorConformanceProperty: random instances × random feasible
// partitionings, sequential execution.
func TestSimulatorConformanceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 30; trial++ {
		inst := randomConformanceInstance(t, rng)
		m, err := core.NewModel(inst, core.DefaultModelOptions())
		if err != nil {
			t.Fatal(err)
		}
		sites := 1 + rng.Intn(4)
		p := randomFeasiblePartitioning(rng, m, sites)
		meas, _, err := Run(context.Background(), m, p, Options{RowsPerTable: 4})
		if err != nil {
			t.Fatal(err)
		}
		requireExact(t, trial, meas, m.Evaluate(p), 1)
	}
}

// TestSimulatorConformancePropertyConcurrent replays the property over
// several rounds, launching several runs at once on each shared model and
// layout; every run must still match the model byte for byte. Run with -race
// this also checks that concurrent callers share nothing mutable.
func TestSimulatorConformancePropertyConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		inst := randomConformanceInstance(t, rng)
		m, err := core.NewModel(inst, core.DefaultModelOptions())
		if err != nil {
			t.Fatal(err)
		}
		sites := 1 + rng.Intn(4)
		p := randomFeasiblePartitioning(rng, m, sites)
		rounds := 1 + rng.Intn(3)
		want := m.Evaluate(p)
		for _, meas := range runConcurrently(t, 3, m, p, Options{RowsPerTable: 4, Rounds: rounds}) {
			requireExact(t, trial, meas, want, float64(rounds))
		}
	}
}

// runConcurrently launches n Run calls at once on one shared model and layout
// and returns their measurements in launch order.
func runConcurrently(t *testing.T, n int, m *core.Model, p *core.Partitioning, opts Options) []*Measured {
	t.Helper()
	meas := make([]*Measured, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			meas[i], _, errs[i] = Run(context.Background(), m, p, opts)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return meas
}
