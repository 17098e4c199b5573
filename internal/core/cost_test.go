package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestEvaluateHandComputed checks the full cost breakdown against the values
// derived by hand in fixture_test.go's comment (p = 2, λ = 0.1, WriteAll).
func TestEvaluateHandComputed(t *testing.T) {
	m := testModel(t)
	p := testPartitioning(m)
	if err := p.Validate(m); err != nil {
		t.Fatalf("fixture partitioning infeasible: %v", err)
	}
	c := m.Evaluate(p)

	if !almostEqual(c.ReadAccess, 214) {
		t.Errorf("AR = %g, want 214", c.ReadAccess)
	}
	if !almostEqual(c.WriteAccess, 40) {
		t.Errorf("AW = %g, want 40", c.WriteAccess)
	}
	if !almostEqual(c.Transfer, 8) {
		t.Errorf("B = %g, want 8", c.Transfer)
	}
	if !almostEqual(c.Objective, 270) {
		t.Errorf("objective(4) = %g, want 270", c.Objective)
	}
	if len(c.SiteWork) != 2 || !almostEqual(c.SiteWork[0], 14) || !almostEqual(c.SiteWork[1], 240) {
		t.Errorf("site work = %v, want [14 240]", c.SiteWork)
	}
	if !almostEqual(c.MaxWork, 240) {
		t.Errorf("m = %g, want 240", c.MaxWork)
	}
	if !almostEqual(c.Balanced, 0.1*270+0.9*240) {
		t.Errorf("objective(6) = %g, want %g", c.Balanced, 0.1*270+0.9*240)
	}
	if c.Latency != 0 || c.LatencyUnits != 0 {
		t.Errorf("latency should be disabled, got %g/%g", c.Latency, c.LatencyUnits)
	}
	if s := c.String(); !strings.Contains(s, "objective(4)=270") {
		t.Errorf("Cost.String = %q", s)
	}
}

// TestEvaluateWithReplication replicates b1 onto site 0 as well and checks
// the expected cost change (written replicas cost local access and transfer,
// but co-location with T1 removes T1's transfer).
func TestEvaluateWithReplication(t *testing.T) {
	m := testModel(t)
	p := testPartitioning(m)
	b1 := attrID(t, m, "S", "b1")
	p.AttrSites[b1][0] = true
	c := m.Evaluate(p)
	if !almostEqual(c.WriteAccess, 48) {
		t.Errorf("AW = %g, want 48", c.WriteAccess)
	}
	if !almostEqual(c.Transfer, 8) {
		t.Errorf("B = %g, want 8", c.Transfer)
	}
	if !almostEqual(c.Objective, 278) {
		t.Errorf("objective(4) = %g, want 278", c.Objective)
	}
}

// TestWriteAccountingModes places b2 (never written) on site 0 and keeps b1
// on site 1 only: the "relevant" accounting must then charge nothing for the
// S fraction at site 0 while "all" charges it.
func TestWriteAccountingModes(t *testing.T) {
	build := func(acc WriteAccounting) (*Model, *Partitioning) {
		m, err := NewModel(testInstance(), ModelOptions{Penalty: 2, Lambda: 0.1, WriteAccounting: acc})
		if err != nil {
			t.Fatal(err)
		}
		p := testPartitioning(m)
		b2 := attrID(t, m, "S", "b2")
		p.AttrSites[b2][0] = true
		return m, p
	}

	mAll, pAll := build(WriteAll)
	cAll := mAll.Evaluate(pAll)
	if !almostEqual(cAll.WriteAccess, 8+32*2) {
		t.Errorf("WriteAll AW = %g, want 72", cAll.WriteAccess)
	}

	mRel, pRel := build(WriteRelevant)
	cRel := mRel.Evaluate(pRel)
	if !almostEqual(cRel.WriteAccess, 40) {
		t.Errorf("WriteRelevant AW = %g, want 40", cRel.WriteAccess)
	}

	mNone, pNone := build(WriteNone)
	cNone := mNone.Evaluate(pNone)
	if cNone.WriteAccess != 0 {
		t.Errorf("WriteNone AW = %g, want 0", cNone.WriteAccess)
	}
	if !(cNone.Objective < cRel.Objective && cRel.Objective < cAll.Objective) {
		t.Errorf("expected none < relevant < all, got %g, %g, %g",
			cNone.Objective, cRel.Objective, cAll.Objective)
	}
}

// TestLatencyExtension enables the Appendix A latency term. With b1 stored
// only on T2's site, T1's write query q2 must reach a remote replica and pays
// latency p_l·f_q = 5·2 = 10.
func TestLatencyExtension(t *testing.T) {
	m, err := NewModel(testInstance(), ModelOptions{Penalty: 2, Lambda: 0.1, LatencyPenalty: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := testPartitioning(m)
	c := m.Evaluate(p)
	if !almostEqual(c.LatencyUnits, 2) {
		t.Errorf("latency units = %g, want 2 (frequency of q2)", c.LatencyUnits)
	}
	if !almostEqual(c.Latency, 10) {
		t.Errorf("latency = %g, want 10", c.Latency)
	}
	if !almostEqual(c.Objective, 270+10) {
		t.Errorf("objective = %g, want 280", c.Objective)
	}

	// Replicating b1 to T1's site does not remove the latency: the write must
	// still reach the remaining remote replica on site 1 (Appendix A counts
	// any remotely placed accessed attribute).
	b1 := attrID(t, m, "S", "b1")
	p.AttrSites[b1][0] = true
	c = m.Evaluate(p)
	if !almostEqual(c.LatencyUnits, 2) {
		t.Errorf("latency units after replication = %g, want 2", c.LatencyUnits)
	}

	// With everything on a single site there is no remote access and no
	// latency at all.
	single := SingleSite(m, 1)
	if c := m.Evaluate(single); c.Latency != 0 || c.LatencyUnits != 0 {
		t.Errorf("single-site latency should be zero, got %g", c.Latency)
	}
}

// TestSingleSiteCostIndependentOfPenalty: with all partitions on one site
// there is no transfer, so the p = 0 and p = 8 objectives must coincide
// (the paper's argument for why latency can be ignored for local placement).
func TestSingleSiteCostIndependentOfPenalty(t *testing.T) {
	inst := testInstance()
	m0, _ := NewModel(inst, ModelOptions{Penalty: 0, Lambda: 0.1})
	m8, _ := NewModel(inst, ModelOptions{Penalty: 8, Lambda: 0.1})
	p0 := SingleSite(m0, 1)
	p8 := SingleSite(m8, 1)
	c0 := m0.Evaluate(p0)
	c8 := m8.Evaluate(p8)
	if !almostEqual(c0.Objective, c8.Objective) {
		t.Fatalf("single-site objective differs with p: %g vs %g", c0.Objective, c8.Objective)
	}
	if c8.Transfer != 0 {
		t.Fatalf("single-site transfer should be 0, got %g", c8.Transfer)
	}
}

func TestCostRatio(t *testing.T) {
	if got := CostRatio(64, 100); !almostEqual(got, 64) {
		t.Fatalf("CostRatio = %g", got)
	}
	if !math.IsNaN(CostRatio(1, 0)) {
		t.Fatal("CostRatio with zero denominator should be NaN")
	}
}

// Property: for random instances and random feasible partitionings, all
// cost components are non-negative with Objective = AR + AW + p·B.
func TestEvaluateProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randomInstance(r)
		m, err := NewModel(inst, ModelOptions{Penalty: 4, Lambda: 0.2})
		if err != nil {
			t.Logf("model error: %v", err)
			return false
		}
		sites := 1 + r.Intn(4)
		p := randomPartitioning(r, m, sites)
		if err := p.Validate(m); err != nil {
			t.Logf("repair failed to produce a feasible partitioning: %v", err)
			return false
		}
		c := m.Evaluate(p)
		if c.ReadAccess < 0 || c.WriteAccess < 0 || c.Transfer < 0 || c.MaxWork < 0 {
			t.Logf("negative component: %+v", c)
			return false
		}
		if !almostEqual(c.Objective, c.ReadAccess+c.WriteAccess+4*c.Transfer) {
			t.Logf("objective mismatch: %+v", c)
			return false
		}
		maxWork := 0.0
		for _, w := range c.SiteWork {
			if w > maxWork {
				maxWork = w
			}
		}
		return almostEqual(maxWork, c.MaxWork)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a replica never decreases the transfer-free part of the
// objective under WriteAll (cost is monotone in replication except for the
// co-location savings of the owning transaction, which are bounded by p times
// the transfer weight). Here we check the weaker but exact invariant used by
// the solvers: replicating an attribute changes the objective by exactly
// c2(a) + Σ_{t on s} c1(a,t).
func TestReplicationDeltaMatchesCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randomInstance(r)
		m, err := NewModel(inst, ModelOptions{Penalty: 4, Lambda: 0.2})
		if err != nil {
			return false
		}
		sites := 2 + r.Intn(3)
		p := randomPartitioning(r, m, sites)
		a := r.Intn(m.NumAttrs())
		s := r.Intn(sites)
		if p.AttrSites[a][s] {
			return true // nothing to add
		}
		before := m.Evaluate(p).Objective
		p.AttrSites[a][s] = true
		after := m.Evaluate(p).Objective

		delta := m.C2(a)
		for txn := 0; txn < m.NumTxns(); txn++ {
			if p.TxnSite[txn] == s {
				delta += m.C1(a, txn)
			}
		}
		return almostEqual(after-before, delta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// clampTransfer must zero cancellation noise but loudly reject genuinely
// negative transfer sums (a violated model invariant), instead of the old
// behaviour of letting them through as a negative cost.
func TestClampTransferGuard(t *testing.T) {
	if got := clampTransfer(12.5, 100); got != 12.5 {
		t.Fatalf("positive transfer altered: %g", got)
	}
	if got := clampTransfer(-1e-12, 1); got != 0 {
		t.Fatalf("tiny absolute noise not clamped: %g", got)
	}
	// Noise scales with the gross transfer: -1e-6 is an honest rounding
	// artefact when the cancelled terms are in the 1e4 range.
	if got := clampTransfer(-1e-6, 1e4); got != 0 {
		t.Fatalf("scale-relative noise not clamped: %g", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("large negative transfer did not panic")
		}
	}()
	clampTransfer(-1.0, 100)
}
