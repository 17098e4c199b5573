package vpart_test

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vpart"
	"vpart/internal/core"
	"vpart/internal/seeds"
)

// TestPortfolioFixedSeedBitIdentical reruns the portfolio with a fixed seed
// and requires bit-identical winners: the progress gating added around the
// child launches must not perturb seed derivation or winner selection.
func TestPortfolioFixedSeedBitIdentical(t *testing.T) {
	inst := vpart.TPCC()
	opts := vpart.Options{
		Sites: 3, Solver: "portfolio", Seed: 11,
		Portfolio: vpart.PortfolioOptions{SASeeds: 3},
	}
	ref, err := vpart.Solve(context.Background(), inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		sol, err := vpart.Solve(context.Background(), inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Cost.Balanced != ref.Cost.Balanced {
			t.Fatalf("run %d: balanced cost %v differs bitwise from reference %v",
				run, sol.Cost.Balanced, ref.Cost.Balanced)
		}
		if sol.Solver != ref.Solver || sol.Seed != ref.Seed {
			t.Fatalf("run %d: winner %s/seed %d, reference %s/seed %d",
				run, sol.Solver, sol.Seed, ref.Solver, ref.Seed)
		}
		if !reflect.DeepEqual(sol.Partitioning, ref.Partitioning) {
			t.Fatalf("run %d: partitioning differs from reference", run)
		}
	}
}

// TestWarmPortfolioMatchesWarmChildren: a portfolio warm-started from a hint
// that itself came out of a warm start races only its warm-seeded children,
// each with the index and seed it has in the full race, and polishes each
// child's layout before the race compares them. Its result must therefore
// equal the better of two direct solves from the same hint, each polished
// the same way — sa at the first child's seed and sa-par at the seed after
// the SA block, ties to sa — bit for bit, and no cold sa[i] child may run.
func TestWarmPortfolioMatchesWarmChildren(t *testing.T) {
	ctx := context.Background()
	rnd64, err := vpart.RandomInstance(vpart.ClassA(64, 200, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		inst   *vpart.Instance
		sites  int
		saPar  int
		winner string
	}{
		{"tpcc/3", vpart.TPCC(), 3, 0, "portfolio/sa+warm[0]"},
		{"tpcc/3/no-sa-par", vpart.TPCC(), 3, -1, "portfolio/sa+warm[0]"},
		{"rndAt64x200/8", rnd64, 8, 0, "portfolio/sa-par"},
		{"rndAt64x200/8/no-sa-par", rnd64, 8, -1, "portfolio/sa+warm[0]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cold, err := vpart.Solve(ctx, tc.inst, vpart.Options{Sites: tc.sites, Solver: "sa", Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			hint, err := vpart.Solve(ctx, tc.inst, vpart.Options{Sites: tc.sites, Solver: "sa", Seed: 8, Warm: cold})
			if err != nil {
				t.Fatal(err)
			}
			if !hint.WarmStart {
				t.Fatal("the hint's own solve did not come out of its warm start")
			}
			direct := func(solver string, seed int64) racedChild {
				sol, err := vpart.Solve(ctx, tc.inst, vpart.Options{Sites: tc.sites, Solver: solver, Seed: seed, Warm: hint})
				if err != nil {
					t.Fatal(err)
				}
				return polishAsRaced(t, solver, sol)
			}
			want := direct("sa", seeds.Derive(1, 0))
			if tc.saPar >= 0 {
				if par := direct("sa-par", seeds.Derive(1, vpart.DefaultPortfolioSASeeds)); par.raceCost < want.raceCost-1e-12 {
					want = par
				}
			}

			var mu sync.Mutex
			var coldTags []string
			sol, err := vpart.Solve(ctx, tc.inst, vpart.Options{
				Sites: tc.sites, Solver: "portfolio", Seed: 1, Warm: hint,
				Portfolio: vpart.PortfolioOptions{SAPar: tc.saPar},
				Progress: func(e vpart.Event) {
					if strings.Contains(e.Solver, "portfolio/sa[") {
						mu.Lock()
						coldTags = append(coldTags, e.Solver)
						mu.Unlock()
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(coldTags) > 0 {
				t.Errorf("warm-only race ran cold children: %d events, the first from %s", len(coldTags), coldTags[0])
			}
			if sol.Solver != tc.winner {
				t.Errorf("winner %s, want %s", sol.Solver, tc.winner)
			}
			if !sol.WarmStart {
				t.Error("a warm-only race returned a result without WarmStart")
			}
			if math.Float64bits(sol.Cost.Balanced) != math.Float64bits(want.cost) {
				t.Errorf("portfolio cost %v, want the polished direct %s solve's %v", sol.Cost.Balanced, want.solver, want.cost)
			}
			if !reflect.DeepEqual(sol.Partitioning, want.layout) {
				t.Errorf("portfolio layout differs from the polished direct %s solve's", want.solver)
			}
		})
	}
}

// racedChild is a direct solve polished as the portfolio polishes a child:
// raceCost is the cost the race compares, over the model the child solved;
// layout and cost are the result over the original instance.
type racedChild struct {
	solver   string
	raceCost float64
	layout   *vpart.Partitioning
	cost     float64
}

// polishAsRaced polishes an unconstrained solve's layout over the grouped
// model the solve searched, as a portfolio child's is, and expands it back.
func polishAsRaced(t *testing.T, solver string, sol *vpart.Solution) racedChild {
	t.Helper()
	g, m, p := searchSpace(t, sol, nil, false)
	q, _, err := core.Polish(context.Background(), m, p, false)
	if err != nil {
		t.Fatal(err)
	}
	out := racedChild{solver: solver, raceCost: m.Evaluate(q).Balanced, layout: q}
	if g != nil {
		if out.layout, err = g.Expand(m, sol.Model, q); err != nil {
			t.Fatal(err)
		}
	}
	out.cost = sol.Model.Evaluate(out.layout).Balanced
	return out
}

// TestPortfolioNoProgressAfterReturn cancels a portfolio run and requires
// silence once Solve has returned: every child callback is gated with
// progress.Func.Until on the race context, so a straggler cannot emit stale
// events at the caller.
func TestPortfolioNoProgressAfterReturn(t *testing.T) {
	inst := cancellationInstance(t)
	var (
		mu       sync.Mutex
		returned bool
		late     int
	)
	record := func(e vpart.Event) {
		mu.Lock()
		if returned {
			late++
		}
		mu.Unlock()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, _ = vpart.Solve(ctx, inst, vpart.Options{
		Sites: 3, Solver: "portfolio", Seed: 5,
		Portfolio: vpart.PortfolioOptions{SASeeds: 4},
		Progress:  record,
	})
	mu.Lock()
	returned = true
	mu.Unlock()
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if late > 0 {
		t.Fatalf("%d progress events delivered after Solve returned", late)
	}
}
