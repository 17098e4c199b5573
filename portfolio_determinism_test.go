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
// each with the index and seed it has in the full race. Its result must
// therefore equal the better of two direct solves from the same hint — sa at
// the first child's seed and sa-par at the seed after the SA block, ties to
// sa — bit for bit, and no cold sa[i] child may run.
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
			direct := func(solver string, seed int64) *vpart.Solution {
				sol, err := vpart.Solve(ctx, tc.inst, vpart.Options{Sites: tc.sites, Solver: solver, Seed: seed, Warm: hint})
				if err != nil {
					t.Fatal(err)
				}
				return sol
			}
			want := direct("sa", seeds.Derive(1, 0))
			if tc.saPar >= 0 {
				if par := direct("sa-par", seeds.Derive(1, vpart.DefaultPortfolioSASeeds)); par.Cost.Balanced < want.Cost.Balanced-1e-12 {
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
			if math.Float64bits(sol.Cost.Balanced) != math.Float64bits(want.Cost.Balanced) {
				t.Errorf("portfolio cost %v, want the direct %s solve's %v", sol.Cost.Balanced, want.Solver, want.Cost.Balanced)
			}
			if !reflect.DeepEqual(sol.Partitioning, want.Partitioning) {
				t.Errorf("portfolio layout differs from the direct %s solve's", want.Solver)
			}
		})
	}
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
