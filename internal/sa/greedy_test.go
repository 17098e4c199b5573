package sa

import (
	"fmt"
	"math"
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
// which rules out sorting in the greedy passes it calls — whether the pass
// runs or its memo answers: alternating two evaluator states misses the memo
// on every call, repeating one state hits it.
func TestIntensifyZeroAlloc(t *testing.T) {
	unconstrained, err := core.NewModel(tpcc.Instance(), core.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	constrained, _ := constrainedTPCC(t)
	for _, m := range []*core.Model{unconstrained, constrained} {
		s := newSolver(m, DefaultOptions(3))
		var evs [2]*core.Evaluator
		for i := range evs {
			rng := rand.New(rand.NewSource(int64(i + 1)))
			p := core.NewPartitioning(m.NumTxns(), m.NumAttrs(), 3)
			s.randomX(rng, p)
			s.findSolution(p, "x")
			p.Repair(m)
			if evs[i], err = core.NewEvaluator(m, p); err != nil {
				t.Fatal(err)
			}
		}
		for _, fixX := range []bool{true, false} {
			wrong := 0
			run := func(ev *core.Evaluator, hit bool) {
				if (s.recall(ev.Partitioning(), fixX) != nil) != hit {
					wrong++
				}
				s.intensify(ev, fixX)
				ev.Undo()
			}
			for i := 0; i < 20; i++ { // warm up the journal capacities
				run(evs[i%2], false)
			}
			for _, path := range []struct {
				name string
				f    func()
			}{
				{"miss", func() { run(evs[0], false); run(evs[1], false) }},
				{"hit", func() { run(evs[1], true) }},
			} {
				if allocs := testing.AllocsPerRun(100, path.f); allocs != 0 {
					t.Errorf("constrained=%v fixX=%v %s: intensify allocates %.1f objects per call",
						m.Constraints() != nil, fixX, path.name, allocs)
				}
			}
			if wrong != 0 {
				t.Errorf("constrained=%v fixX=%v: %d calls took the other memo path than measured",
					m.Constraints() != nil, fixX, wrong)
			}
		}
	}
}

// capacityCase is TPC-C on 3 sites with NewOrder pinned to site 0 and site
// 0 holding a sixteenth of the schema's bytes, less than NewOrder reads: every
// greedy y-rebuild overruns the capacity, so intensify prices every pass with
// x fixed +Inf.
func capacityCase(t *testing.T) greedyCase {
	t.Helper()
	inst := tpcc.Instance()
	width := 0
	for _, tbl := range inst.Schema.Tables {
		for _, a := range tbl.Attributes {
			width += a.Width
		}
	}
	cons := &core.Constraints{
		PinTxns:        []core.PinTxn{{Txn: "NewOrder", Site: 0}},
		SiteCapacities: []core.SiteCapacity{{Site: 0, Bytes: int64(width / 16)}},
	}
	m, err := core.NewModelConstrained(inst, core.DefaultModelOptions(), cons)
	if err != nil {
		t.Fatal(err)
	}
	return greedyCase{name: "tpcc/capacity", m: m, opts: DefaultOptions(3)}
}

// moveTo turns ev's layout into q with committed moves.
func moveTo(ev *core.Evaluator, q *core.Partitioning) {
	p := ev.Partitioning()
	for t, st := range q.TxnSite {
		if p.TxnSite[t] != st {
			ev.ApplyMoveTxn(t, st)
		}
	}
	for a, row := range q.AttrSites {
		for st, on := range row {
			switch {
			case on && !p.AttrSites[a][st]:
				ev.ApplyAddReplica(a, st)
			case !on && p.AttrSites[a][st]:
				ev.ApplyDropReplica(a, st)
			}
		}
	}
	ev.Commit()
}

// TestIntensifyMemoMatchesFreshPass holds intensify's memo to passes that
// always run. Two evaluators walk in lockstep through a chain-like schedule:
// random perturbs committed or undone, intensify with the fixed vector
// mostly alternating, restores of older snapshots, and random layouts — x,
// y or both redrawn — that need not be single-sited. One solver keeps its
// memo; the other is rebuilt before every pass, so it always recomputes.
// Every delta must be equal bit for bit, and so must the layouts and
// Balanced after every step. Across the cases the walk must hit the memo
// with either vector fixed, hit an x-pass the constraints priced +Inf, and
// run passes that must not be recorded.
func TestIntensifyMemoMatchesFreshPass(t *testing.T) {
	var hitsX, hitsY, infHits, unrecorded int
	for ci, c := range append(greedyCases(t), capacityCase(t)) {
		rng := rand.New(rand.NewSource(int64(ci + 1)))
		solvers := [2]*solver{newSolver(c.m, c.opts), newSolver(c.m, c.opts)}
		start := core.NewPartitioning(c.m.NumTxns(), c.m.NumAttrs(), c.opts.Sites)
		solvers[0].randomX(rng, start)
		solvers[0].findSolution(start, "x")
		start.Repair(c.m)
		var evs [2]*core.Evaluator
		for i := range evs {
			var err error
			if evs[i], err = core.NewEvaluator(c.m, start); err != nil {
				t.Fatal(err)
			}
		}
		var snaps [][2]*core.EvalSnapshot
		fixX := true
		for step := 0; step < 80; step++ {
			var deltas [2]float64
			what := ""
			switch r := rng.Intn(20); {
			case r < 10:
				what = "perturb"
				seed := rng.Int63()
				for i, ev := range evs {
					deltas[i] = solvers[i].perturb(rand.New(rand.NewSource(seed)), ev)
				}
				accept := rng.Intn(3) == 0
				for _, ev := range evs {
					if accept {
						ev.Commit()
					} else {
						ev.Undo()
					}
				}
			case r < 17:
				what = fmt.Sprintf("intensify(fixX=%v)", fixX)
				if hit := solvers[0].recall(evs[0].Partitioning(), fixX); hit != nil {
					switch {
					case !fixX:
						hitsY++
					case hit.feasible:
						hitsX++
					default:
						infHits++
					}
				}
				solvers[1] = newSolver(c.m, c.opts)
				for i, ev := range evs {
					deltas[i] = solvers[i].intensify(ev, fixX)
				}
				memo := &solvers[0].xFromY
				if fixX {
					memo = &solvers[0].yFromX
				}
				if !memo.reusable {
					unrecorded++
				}
				accept := deltas[0] <= 0 || (!math.IsInf(deltas[0], 1) && rng.Intn(2) == 0)
				for _, ev := range evs {
					if accept {
						ev.Commit()
					} else {
						ev.Undo()
					}
				}
				if rng.Intn(4) > 0 {
					fixX = !fixX
				}
			case r < 19:
				if len(snaps) == 0 || rng.Intn(2) == 0 {
					what = "snapshot"
					snaps = append(snaps, [2]*core.EvalSnapshot{evs[0].Snapshot(), evs[1].Snapshot()})
					break
				}
				what = "restore"
				snap := snaps[rng.Intn(len(snaps))]
				for i, ev := range evs {
					ev.Restore(snap[i])
				}
			default:
				redraw := rng.Intn(3) // 0: x, 1: y, 2: both
				what = fmt.Sprintf("random layout (redraw %d)", redraw)
				q := evs[0].Partitioning().Clone()
				r := q.Clone()
				randomLayout(rng, r)
				if redraw != 1 {
					copy(q.TxnSite, r.TxnSite)
				}
				if redraw != 0 {
					q.AttrSites = r.AttrSites
				}
				for _, ev := range evs {
					moveTo(ev, q)
				}
			}
			if math.Float64bits(deltas[0]) != math.Float64bits(deltas[1]) {
				t.Fatalf("%s step %d: %s gives delta %v with the memo, %v without", c.name, step, what, deltas[0], deltas[1])
			}
			p, q := evs[0].Partitioning(), evs[1].Partitioning()
			if !reflect.DeepEqual(p.TxnSite, q.TxnSite) || !reflect.DeepEqual(p.AttrSites, q.AttrSites) {
				t.Fatalf("%s step %d: after %s the layouts differ:\n memo  %v %v\n fresh %v %v",
					c.name, step, what, p.TxnSite, p.AttrSites, q.TxnSite, q.AttrSites)
			}
			if b0, b1 := evs[0].Balanced(), evs[1].Balanced(); math.Float64bits(b0) != math.Float64bits(b1) {
				t.Fatalf("%s step %d: after %s Balanced is %v with the memo, %v without", c.name, step, what, b0, b1)
			}
		}
	}
	t.Logf("memo hits: %d with x fixed (+%d priced +Inf), %d with y fixed; %d passes not recorded",
		hitsX, infHits, hitsY, unrecorded)
	if hitsX == 0 || hitsY == 0 || infHits == 0 || unrecorded == 0 {
		t.Fatalf("the walk must hit the memo with either vector fixed, hit an x-pass priced +Inf and leave a pass unrecorded: %d, %d, %d, %d",
			hitsX, hitsY, infHits, unrecorded)
	}
}
