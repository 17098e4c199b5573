package decompose

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vpart/internal/core"
	"vpart/internal/progress"
)

// multiInstance builds a deterministic instance with `banks` independent
// components, each one table with a couple of attributes and transactions.
func multiInstance(banks int) *core.Instance {
	inst := &core.Instance{Name: fmt.Sprintf("pool-%d", banks)}
	for b := 0; b < banks; b++ {
		tbl := core.Table{Name: fmt.Sprintf("T%d", b)}
		for a := 0; a < 3; a++ {
			tbl.Attributes = append(tbl.Attributes, core.Attribute{Name: fmt.Sprintf("a%d", a), Width: 4})
		}
		inst.Schema.Tables = append(inst.Schema.Tables, tbl)
		inst.Workload.Transactions = append(inst.Workload.Transactions, core.Transaction{
			Name: fmt.Sprintf("txn%d", b),
			Queries: []core.Query{
				core.NewRead("r", tbl.Name, []string{"a0", "a1"}, 2, 1),
				core.NewWrite("w", tbl.Name, []string{"a2"}, 1, 1),
			},
		})
	}
	return inst
}

func testModel(t *testing.T, inst *core.Instance) *core.Model {
	t.Helper()
	m, err := core.NewModel(inst, core.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// greedyShard returns a trivially feasible shard solution.
func greedyShard(sm *core.Model) *ShardOutcome {
	p := core.SingleSite(sm, 2)
	return &ShardOutcome{Partitioning: p, Cost: sm.Evaluate(p), Solver: "stub", Iterations: 1}
}

func TestSolvePoolMergesAllShards(t *testing.T) {
	m := testModel(t, multiInstance(5))
	var calls atomic.Int32
	res, err := Solve(context.Background(), m, Options{
		Workers: 2,
		SolveShard: func(ctx context.Context, shard int, sm *core.Model, warm *core.Partitioning, prog progress.Func) (*ShardOutcome, error) {
			calls.Add(1)
			prog.Emit(progress.Event{Kind: progress.KindIncumbent, Cost: 1})
			return greedyShard(sm), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 5 {
		t.Errorf("inner solver called %d times, want 5", calls.Load())
	}
	if res.Partitioning == nil || len(res.Shards) != 5 {
		t.Fatalf("result %+v", res)
	}
	if res.Iterations != 5 {
		t.Errorf("iterations %d, want 5", res.Iterations)
	}
	if direct := m.Evaluate(res.Partitioning); direct.Objective != res.Cost.Objective {
		t.Errorf("merged cost %g != direct evaluation %g", res.Cost.Objective, direct.Objective)
	}
	if res.Optimal {
		t.Error("multi-shard result claims optimality")
	}
}

func TestSolveShardErrorCancelsRemaining(t *testing.T) {
	m := testModel(t, multiInstance(6))
	boom := errors.New("boom")
	var sawCancelled atomic.Bool
	_, err := Solve(context.Background(), m, Options{
		Workers: 1, // serial pool: shard 2 fails, later shards must not run
		SolveShard: func(ctx context.Context, shard int, sm *core.Model, warm *core.Partitioning, prog progress.Func) (*ShardOutcome, error) {
			if shard >= 3 {
				sawCancelled.Store(true)
			}
			if shard == 2 {
				return nil, boom
			}
			return greedyShard(sm), nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the shard error", err)
	}
	if sawCancelled.Load() {
		t.Error("shards after the failure were still solved")
	}
}

func TestSolveContextCancellation(t *testing.T) {
	m := testModel(t, multiInstance(4))
	ctx, cancel := context.WithCancel(context.Background())
	_, err := Solve(ctx, m, Options{
		SolveShard: func(ctx context.Context, shard int, sm *core.Model, warm *core.Partitioning, prog progress.Func) (*ShardOutcome, error) {
			cancel()
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

func TestSolveTimeoutWithoutIncumbent(t *testing.T) {
	m := testModel(t, multiInstance(3))
	res, err := Solve(context.Background(), m, Options{
		SolveShard: func(ctx context.Context, shard int, sm *core.Model, warm *core.Partitioning, prog progress.Func) (*ShardOutcome, error) {
			if shard == 1 {
				return &ShardOutcome{TimedOut: true, Solver: "stub"}, nil // t/o, no incumbent
			}
			return greedyShard(sm), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitioning != nil {
		t.Error("partial shard results were merged into a partitioning")
	}
	if !res.TimedOut {
		t.Error("timed-out shard not reflected in the result")
	}
	if len(res.Shards) != 3 {
		t.Errorf("%d shard reports, want 3", len(res.Shards))
	}
}

func TestSolveSingleShardOptimal(t *testing.T) {
	m := testModel(t, multiInstance(1))
	res, err := Solve(context.Background(), m, Options{
		SolveShard: func(ctx context.Context, shard int, sm *core.Model, warm *core.Partitioning, prog progress.Func) (*ShardOutcome, error) {
			out := greedyShard(sm)
			out.Optimal = true
			return out, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Error("single optimal shard not reported as optimal")
	}
}

func TestSolveRejectsMissingCallback(t *testing.T) {
	m := testModel(t, multiInstance(1))
	if _, err := Solve(context.Background(), m, Options{}); err == nil {
		t.Error("missing SolveShard accepted")
	}
	if _, err := Solve(context.Background(), m, Options{
		SolveShard: func(ctx context.Context, shard int, sm *core.Model, warm *core.Partitioning, prog progress.Func) (*ShardOutcome, error) {
			return nil, nil
		},
	}); err == nil {
		t.Error("nil outcome accepted")
	}
}

// TestSolveProgressShardTags checks the re-tagging contract: every forwarded
// shard event carries its shard id prefix, and no event is delivered after
// Solve returns (the Until gate closes with the run context).
func TestSolveProgressShardTags(t *testing.T) {
	m := testModel(t, multiInstance(4))
	var mu sync.Mutex
	var tags []string
	var done atomic.Bool
	_, err := Solve(context.Background(), m, Options{
		Workers: 4,
		Progress: func(e progress.Event) {
			if done.Load() {
				t.Error("event delivered after the run concluded")
			}
			mu.Lock()
			tags = append(tags, e.Solver)
			mu.Unlock()
		},
		SolveShard: func(ctx context.Context, shard int, sm *core.Model, warm *core.Partitioning, prog progress.Func) (*ShardOutcome, error) {
			prog.Emit(progress.Event{Kind: progress.KindIncumbent, Solver: "inner", Cost: 1})
			return greedyShard(sm), nil
		},
	})
	done.Store(true)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	var shardTagged int
	for _, tag := range tags {
		if strings.HasPrefix(tag, "decompose/shard[") && strings.HasSuffix(tag, "]/inner") {
			shardTagged++
		}
	}
	if shardTagged != 4 {
		t.Errorf("saw %d shard-tagged events, want 4 (tags: %v)", shardTagged, tags)
	}
}

func TestSolveManyShardsStress(t *testing.T) {
	m := testModel(t, multiInstance(32))
	res, err := Solve(context.Background(), m, Options{
		Workers: 8,
		SolveShard: func(ctx context.Context, shard int, sm *core.Model, warm *core.Partitioning, prog progress.Func) (*ShardOutcome, error) {
			// Random feasible layout per shard keeps the merge non-trivial
			// (per-shard rng: the pool runs shards concurrently).
			rng := rand.New(rand.NewSource(int64(shard)))
			p := core.SingleSite(sm, 3)
			for a := 0; a < sm.NumAttrs(); a++ {
				p.AttrSites[a][rng.Intn(3)] = true
			}
			p.Repair(sm)
			return &ShardOutcome{Partitioning: p, Cost: sm.Evaluate(p), Solver: "stub"}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitioning == nil || len(res.Shards) != 32 {
		t.Fatalf("stress merge failed: %+v", res)
	}
}

// TestSolveShardErrorAttribution: when one shard fails and the pool's
// cancellation makes other shards abort with context errors, the returned
// error must carry the root cause, not a straggler's cancellation.
func TestSolveShardErrorAttribution(t *testing.T) {
	m := testModel(t, multiInstance(2))
	boom := errors.New("boom")
	started := make(chan struct{})
	_, err := Solve(context.Background(), m, Options{
		Workers: 2,
		SolveShard: func(ctx context.Context, shard int, sm *core.Model, warm *core.Partitioning, prog progress.Func) (*ShardOutcome, error) {
			if shard == 0 {
				// Long-running shard: aborts only when shard 1's failure
				// cancels the pool.
				close(started)
				<-ctx.Done()
				return nil, fmt.Errorf("inner: %w", ctx.Err())
			}
			<-started
			return nil, boom
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the root-cause shard error", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("root-cause error %v misclassified as a cancellation", err)
	}
}

// TestSolvePolishesOnlyAnUncutMerge: the merge of several shards is polished
// (every shard here replicates each attribute to both sites, so dropping the
// copies no reader needs pays), but the merged layout is returned exactly as
// the shards left it when there is one shard (a wrapped one-component solve
// equals the direct one), when a shard timed out, or when the deadline has
// passed (the time budget is spent).
func TestSolvePolishesOnlyAnUncutMerge(t *testing.T) {
	for _, row := range []struct {
		name     string
		banks    int
		timedOut int // the shard that reports TimedOut, or -1
		deadline time.Time
		polished bool
	}{
		{"several-shards", 3, -1, time.Time{}, true},
		{"before-deadline", 3, -1, time.Now().Add(time.Hour), true},
		{"one-shard", 1, -1, time.Time{}, false},
		{"shard-timed-out", 3, 1, time.Time{}, false},
		{"deadline-passed", 3, -1, time.Now().Add(-time.Second), false},
	} {
		t.Run(row.name, func(t *testing.T) {
			m := testModel(t, multiInstance(row.banks))
			parts := make([]*core.Partitioning, row.banks)
			res, err := Solve(context.Background(), m, Options{
				Workers:  1,
				Deadline: row.deadline,
				SolveShard: func(ctx context.Context, shard int, sm *core.Model, warm *core.Partitioning, prog progress.Func) (*ShardOutcome, error) {
					p := core.FullReplication(sm, 2)
					parts[shard] = p.Clone()
					return &ShardOutcome{Partitioning: p, Cost: sm.Evaluate(p), Solver: "stub", TimedOut: shard == row.timedOut}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			d, err := core.DecomposeModel(m)
			if err != nil {
				t.Fatal(err)
			}
			plain, plainCost, err := d.MergeSolutions(m, parts)
			if err != nil {
				t.Fatal(err)
			}
			if _, moves, _ := core.Polish(context.Background(), m, plain, false); moves == 0 {
				t.Fatal("the plain merge holds no improving move, so the row cannot tell a polished merge apart")
			}
			if got := reflect.DeepEqual(res.Partitioning, plain); got == row.polished {
				t.Errorf("merged layout equals the plain merge: %v, want %v", got, !row.polished)
			}
			if row.polished && res.Cost.Balanced >= plainCost.Balanced {
				t.Errorf("polished cost %v does not undercut the plain merge's %v", res.Cost.Balanced, plainCost.Balanced)
			}
			if direct := m.Evaluate(res.Partitioning); !reflect.DeepEqual(direct, res.Cost) {
				t.Errorf("recorded cost %+v is not the evaluation %+v of the layout", res.Cost, direct)
			}
		})
	}
}
