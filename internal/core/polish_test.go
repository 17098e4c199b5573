package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"vpart/internal/core"
	"vpart/internal/randgen"
)

// TestPolishImprovesRandomLayouts: on random feasible layouts under every
// write-accounting mode, with and without the latency term, the polish
// commits moves, never raises the balanced cost, keeps the layout feasible,
// returns a cost its own evaluator agrees with, leaves its input untouched
// and is deterministic.
func TestPolishImprovesRandomLayouts(t *testing.T) {
	ctx := context.Background()
	inst, err := randgen.Generate(randgen.ClassA(8, 30, 20), 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, mode := range []core.WriteAccounting{core.WriteAll, core.WriteRelevant, core.WriteNone} {
		for _, latency := range []float64{0, 0.5} {
			mo := core.DefaultModelOptions()
			mo.WriteAccounting, mo.LatencyPenalty = mode, latency
			m, err := core.NewModel(inst, mo)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 3; trial++ {
				p := randomFeasible(m, 2+trial, rng)
				before := p.Clone()
				q, moves, err := core.Polish(ctx, m, p, false)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(p, before) {
					t.Fatalf("%v/latency %v: Polish mutated its input", mode, latency)
				}
				if moves == 0 {
					t.Fatalf("%v/latency %v: no move improves a random layout", mode, latency)
				}
				if err := q.Validate(m); err != nil {
					t.Fatalf("%v/latency %v: polished layout is infeasible: %v", mode, latency, err)
				}
				if got, was := m.Evaluate(q).Balanced, m.Evaluate(p).Balanced; got > was {
					t.Fatalf("%v/latency %v: polish raised the cost %v to %v", mode, latency, was, got)
				}
				again, moves2, _ := core.Polish(ctx, m, p, false)
				if moves2 != moves || !reflect.DeepEqual(again, q) {
					t.Fatalf("%v/latency %v: a second polish of the same layout differs", mode, latency)
				}
				if _, more, _ := core.Polish(ctx, m, q, false); more != 0 {
					t.Fatalf("%v/latency %v: polishing a polished layout committed %d more moves", mode, latency, more)
				}
			}
		}
	}
}

// TestPolishNoOps: the polish returns its input untouched in disjoint mode,
// on one site and once its context is done.
func TestPolishNoOps(t *testing.T) {
	inst, err := randgen.Generate(randgen.ClassA(4, 12, 20), 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewModel(inst, core.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name     string
		ctx      context.Context
		sites    int
		disjoint bool
	}{
		{"disjoint", context.Background(), 3, true},
		{"one-site", context.Background(), 1, false},
		{"cancelled", done, 3, false},
	} {
		p := randomFeasible(m, tc.sites, rng)
		q, moves, err := core.Polish(tc.ctx, m, p, tc.disjoint)
		if err != nil || moves != 0 || q != p {
			t.Errorf("%s: Polish returned (%p, %d, %v), want its input, 0 moves and no error", tc.name, q, moves, err)
		}
	}
}

// TestNeighbourhoodMovesPriceLikeEvaluate: every admissible move of the
// neighbourhood — drop, add and relocation — keeps a feasible layout
// feasible, Apply prices it as Model.Evaluate's difference, and Undo
// restores the layout. No addition lowers the cost, which the polish relies
// on when it prices no AddUnit move on its own.
func TestNeighbourhoodMovesPriceLikeEvaluate(t *testing.T) {
	inst, err := randgen.Generate(randgen.ClassA(6, 20, 20), 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for _, mode := range []core.WriteAccounting{core.WriteAll, core.WriteRelevant, core.WriteNone} {
		mo := core.DefaultModelOptions()
		mo.WriteAccounting, mo.LatencyPenalty = mode, 0.5
		m, err := core.NewModel(inst, mo)
		if err != nil {
			t.Fatal(err)
		}
		p := randomFeasible(m, 3, rng)
		ev, err := core.NewEvaluator(m, p)
		if err != nil {
			t.Fatal(err)
		}
		nb := core.NewNeighbourhood(m)
		base := m.Evaluate(p).Balanced
		moves := 0
		for _, kind := range []core.MoveKind{core.DropUnit, core.AddUnit, core.MoveTxn} {
			n := m.NumAttrs()
			if kind == core.MoveTxn {
				n = m.NumTxns()
			}
			for x := 0; x < n; x++ {
				for s := 0; s < p.Sites; s++ {
					mv := core.Move{Kind: kind, X: x, Site: s}
					if !nb.Admissible(ev, mv) {
						continue
					}
					moves++
					delta := nb.Apply(ev, mv)
					after := ev.Partitioning()
					if err := after.Validate(m); err != nil {
						t.Fatalf("%v: admissible move %+v leaves an infeasible layout: %v", mode, mv, err)
					}
					want := m.Evaluate(after).Balanced - base
					if !relClose(delta, want, 1e-9) {
						t.Fatalf("%v: move %+v priced %v, Evaluate differs by %v", mode, mv, delta, want)
					}
					if kind == core.AddUnit && delta < -1e-9*base {
						t.Fatalf("%v: adding a replica (%+v) lowered the cost by %v", mode, mv, -delta)
					}
					ev.Undo()
					if !reflect.DeepEqual(ev.Partitioning(), p) {
						t.Fatalf("%v: Undo of %+v did not restore the layout", mode, mv)
					}
				}
			}
		}
		if moves == 0 {
			t.Fatalf("%v: no admissible move", mode)
		}
	}
}
