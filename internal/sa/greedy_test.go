package sa

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"vpart/internal/core"
	"vpart/internal/randgen"
	"vpart/internal/tpcc"
)

// randomLayout fills p with uniformly random transaction sites and replica
// bits. The layouts need not be feasible: the greedy passes must agree with
// the reference on any input.
func randomLayout(rng *rand.Rand, p *core.Partitioning) {
	for t := range p.TxnSite {
		p.TxnSite[t] = rng.Intn(p.Sites)
	}
	for a := range p.AttrSites {
		for st := range p.AttrSites[a] {
			p.AttrSites[a][st] = rng.Intn(2) == 0
		}
	}
}

// randomConstraints draws a constraint set over inst's names touching every
// kind: a transaction pin, an attribute pin, a forbidden site, a colocated
// and a separated pair, a replica cap and a site capacity. The set may be
// contradictory; the caller skips those.
func randomConstraints(rng *rand.Rand, inst *core.Instance, sites int) *core.Constraints {
	var attrs []core.QualifiedAttr
	width := 0
	for _, tbl := range inst.Schema.Tables {
		for _, a := range tbl.Attributes {
			attrs = append(attrs, core.QualifiedAttr{Table: tbl.Name, Attr: a.Name})
			width += a.Width
		}
	}
	pick := func() core.QualifiedAttr { return attrs[rng.Intn(len(attrs))] }
	txns := inst.Workload.Transactions
	cons := &core.Constraints{
		PinTxns:     []core.PinTxn{{Txn: txns[rng.Intn(len(txns))].Name, Site: rng.Intn(sites)}},
		PinAttrs:    []core.PinAttr{{Attr: pick(), Site: rng.Intn(sites)}},
		ForbidAttrs: []core.ForbidAttr{{Attr: pick(), Site: rng.Intn(sites)}},
		Colocate:    []core.Colocate{{A: pick(), B: pick()}},
		Separate:    []core.Separate{{A: pick(), B: pick()}},
		MaxReplicas: []core.MaxReplicas{{Attr: pick(), K: 1 + rng.Intn(sites)}},
		SiteCapacities: []core.SiteCapacity{
			{Site: rng.Intn(sites), Bytes: int64(width * (1 + rng.Intn(3)) / 2)},
		},
	}
	return cons
}

// attrRequiredAt is the reference passes' O(1) flattened lookup of a
// required site.
func (s *solver) attrRequiredAt(a, st int) bool {
	return s.ct.AttrRequired[a*s.sites+st]
}

// greedyCase is one solver configuration the passes are compared under.
type greedyCase struct {
	name string
	m    *core.Model
	opts Options
}

func greedyCases(t *testing.T) []greedyCase {
	t.Helper()
	var cases []greedyCase
	accountings := []core.WriteAccounting{core.WriteAll, core.WriteRelevant, core.WriteNone}
	for seed := int64(1); seed <= 4; seed++ {
		inst, err := randgen.Generate(randgen.ClassA(6, 24, 25), seed)
		if err != nil {
			t.Fatal(err)
		}
		small := randomInstance(rand.New(rand.NewSource(seed)))
		for _, wa := range accountings {
			mopts := core.ModelOptions{Penalty: 8, Lambda: 0.1 * float64(seed), WriteAccounting: wa}
			for _, in := range []*core.Instance{inst, small} {
				m, err := core.NewModel(in, mopts)
				if err != nil {
					t.Fatal(err)
				}
				sites := 2 + int(seed)%3
				for _, disjoint := range []bool{false, true} {
					opts := DefaultOptions(sites)
					opts.Disjoint = disjoint
					cases = append(cases, greedyCase{
						name: fmt.Sprintf("%s/seed%d/%s/disjoint=%v", in.Name, seed, wa, disjoint),
						m:    m, opts: opts,
					})
				}
			}
			// Constrained: every constraint kind on TPC-C, and random sets
			// on the random instance.
			m, err := core.NewModelConstrained(tpcc.Instance(), mopts, tpccConstraints(t))
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, greedyCase{name: fmt.Sprintf("tpcc/constrained/seed%d/%s", seed, wa), m: m, opts: DefaultOptions(3)})
			rng := rand.New(rand.NewSource(seed))
			for try := 0; try < 8; try++ {
				sites := 2 + rng.Intn(3)
				m, err := core.NewModelConstrained(inst, mopts, randomConstraints(rng, inst, sites))
				if err != nil || m.ValidateConstraintSites(sites) != nil {
					continue
				}
				cases = append(cases, greedyCase{
					name: fmt.Sprintf("%s/constrained/seed%d/%s/try%d", inst.Name, seed, wa, try),
					m:    m, opts: DefaultOptions(sites),
				})
			}
		}
	}
	return cases
}

// tpccConstraints is constrainedTPCC's constraint set.
func tpccConstraints(t *testing.T) *core.Constraints {
	_, cons := constrainedTPCC(t)
	return cons
}

// TestGreedyPassesMatchDenseReference pins the exactness argument of the
// term-walking greedy passes: on random layouts, and on the layouts the
// passes themselves produce, findSolution("x") and findSolution("y") give
// the same transaction sites and replica bits as the reference passes in
// dense_ref_test.go, for unconstrained, constrained and disjoint solvers
// under all three write accountings.
func TestGreedyPassesMatchDenseReference(t *testing.T) {
	constrained := 0
	for _, c := range greedyCases(t) {
		if c.m.Constraints() != nil {
			constrained++
		}
		s := newSolver(c.m, c.opts)
		ref := newSolver(c.m, c.opts)
		rng := rand.New(rand.NewSource(int64(len(c.name))))
		for round := 0; round < 6; round++ {
			p := core.NewPartitioning(c.m.NumTxns(), c.m.NumAttrs(), c.opts.Sites)
			randomLayout(rng, p)
			want := p.Clone()
			// Alternate the fixed vector three times from the random layout,
			// starting with either one.
			fix := []string{"x", "y"}[round%2]
			for step := 0; step < 3; step++ {
				s.findSolution(p, fix)
				denseFindSolution(ref, want, fix)
				if !reflect.DeepEqual(p.TxnSite, want.TxnSite) || !reflect.DeepEqual(p.AttrSites, want.AttrSites) {
					t.Fatalf("%s round %d step %d: findSolution(%q) differs from the dense reference:\n got %v %v\nwant %v %v",
						c.name, round, step, fix, p.TxnSite, p.AttrSites, want.TxnSite, want.AttrSites)
				}
				if fix == "x" {
					fix = "y"
				} else {
					fix = "x"
				}
			}
		}
	}
	if constrained < 12 {
		t.Fatalf("only %d constrained cases compiled; the random constraint sets are too often contradictory", constrained)
	}
}

// TestIntensifyZeroAlloc: intensify is annotated //vpart:noalloc, and the
// static check sees only its own body. Once warm it must not allocate for
// either fixed vector, on an unconstrained and on a constrained model —
// which rules out sorting in the greedy passes it calls.
func TestIntensifyZeroAlloc(t *testing.T) {
	unconstrained, err := core.NewModel(tpcc.Instance(), core.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	constrained, _ := constrainedTPCC(t)
	for _, m := range []*core.Model{unconstrained, constrained} {
		s := newSolver(m, DefaultOptions(3))
		rng := rand.New(rand.NewSource(1))
		p := core.NewPartitioning(m.NumTxns(), m.NumAttrs(), 3)
		s.randomX(rng, p)
		s.findSolution(p, "x")
		p.Repair(m)
		ev, err := core.NewEvaluator(m, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, fixX := range []bool{true, false} {
			for i := 0; i < 20; i++ { // warm up the scratch and journal capacities
				s.intensify(ev, fixX)
				ev.Undo()
			}
			if allocs := testing.AllocsPerRun(100, func() {
				s.intensify(ev, fixX)
				ev.Undo()
			}); allocs != 0 {
				t.Errorf("constrained=%v fixX=%v: intensify allocates %.1f objects per call",
					m.Constraints() != nil, fixX, allocs)
			}
		}
	}
}
