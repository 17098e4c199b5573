// Package decompose implements the shard-solving machinery behind the
// "decompose" meta-solver: it splits a compiled model's instance into the
// independent components of its table–transaction access graph
// (core.Decompose), solves every component concurrently on a bounded worker
// pool with a caller-supplied inner solver, merges the per-shard
// partitionings back exactly (core.Decomposition.MergeSolutions) and
// polishes the merged layout to a local optimum (core.Polish).
//
// The inner solver is injected as a callback rather than looked up here
// because the solver registry lives in the root vpart package, which imports
// this one; the root package registers the thin Solver adapter.
package decompose

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"vpart/internal/conc"
	"vpart/internal/core"
	"vpart/internal/progress"
)

// ShardOutcome is what the inner solver reports for one shard.
type ShardOutcome struct {
	// Reused marks a shard that was not solved at all: its component was
	// untouched by the workload deltas since the warm solution, so the warm
	// solution's projection was taken over verbatim.
	Reused bool
	// Partitioning is the best partitioning of the shard model; nil when the
	// inner solver timed out without an incumbent.
	Partitioning *core.Partitioning
	// Cost is the shard model's cost breakdown of Partitioning.
	Cost core.Cost
	// Solver names the solver (or winning child) that produced the result.
	Solver string
	// Seed is the SA seed the shard was solved with (0 for seedless solvers).
	Seed int64
	// Optimal reports whether the shard solution was proven optimal.
	Optimal bool
	// TimedOut reports whether a soft time limit cut the shard's search.
	TimedOut bool
	// Iterations and Nodes are the inner solver's search statistics.
	Iterations int
	Nodes      int
}

// ShardInfo describes one solved shard in the meta-solver's result: the
// component's dimensions plus the inner solver's outcome.
type ShardInfo struct {
	// Shard is the component index.
	Shard int
	// Tables, Attrs and Txns are the component's dimensions (attribute
	// groups, not original attributes, when the instance was grouped).
	Tables int
	Attrs  int
	Txns   int
	// Solver names the inner solver (or its winning child) for this shard.
	Solver string
	// Seed is the shard's SA seed.
	Seed int64
	// Objective is the shard model's objective (4) of the shard solution.
	Objective float64
	// Optimal and TimedOut mirror the inner solver's flags.
	Optimal  bool
	TimedOut bool
	// Iterations and Nodes are the inner solver's search statistics.
	Iterations int
	Nodes      int
	// Reused marks a shard whose previous solution was taken over verbatim
	// because no workload delta touched its component.
	Reused bool
	// Runtime is the shard's wall-clock solve time (excluding queueing).
	Runtime time.Duration
}

// SolveShardFunc solves one shard. It receives the component index, the
// compiled shard model, the projection of the warm solution onto the shard
// (nil for cold solves) and a progress func already re-tagged with the shard
// id ("decompose/shard[i]/..."); it must honour ctx.
type SolveShardFunc func(ctx context.Context, shard int, m *core.Model, warm *core.Partitioning, prog progress.Func) (*ShardOutcome, error)

// Options configure a decompose run.
type Options struct {
	// Workers bounds the number of concurrently solved shards; 0 means
	// GOMAXPROCS. The pool never exceeds the shard count.
	Workers int
	// Warm, when non-nil, is a previous solution over the source model. Each
	// shard's solver is seeded with its projection, and — when Dirty is also
	// set — shards whose component no delta touched are not solved at all:
	// the projection is reused verbatim (marked Reused in the shard info).
	// Ignored when its dimensions do not match the source model.
	Warm *core.Partitioning
	// Dirty lists the table and transaction names the workload deltas since
	// Warm touched. nil means unknown (every shard is re-solved, warm-seeded);
	// an empty set means nothing changed and every shard is reusable.
	Dirty *core.DirtySet
	// Progress receives the meta-solver's own events (tagged "decompose")
	// and the shards' re-tagged streams. It may be called from several
	// worker goroutines concurrently. No events are delivered after the run
	// concludes or the context is cancelled.
	Progress progress.Func
	// SolveShard is the inner solver callback. Required.
	SolveShard SolveShardFunc
	// Disjoint marks a solve that forbids replication; the merged layout is
	// then returned unpolished.
	Disjoint bool
	// Budget, when non-nil, is the compute budget the merged layout's polish
	// holds one slot of while it runs.
	Budget *conc.Budget
	// Deadline, when non-zero, is the end of the run's time budget: the
	// merged layout's polish stops there with the layout it holds.
	Deadline time.Time
}

// Result is the outcome of a decompose run over the source model.
type Result struct {
	// Partitioning is the merged partitioning over the source model, or nil
	// when some shard found none within its limits.
	Partitioning *core.Partitioning
	// Cost is the source model's evaluation of Partitioning (exact, not a
	// float re-accumulation of the shard breakdowns).
	Cost core.Cost
	// Shards reports the per-component outcomes, indexed by component.
	Shards []ShardInfo
	// ShardsReused counts the shards whose previous solution was reused
	// without solving (warm runs over a dirty set only).
	ShardsReused int
	// Optimal reports whether the merged solution is proven optimal: only
	// when there is a single shard whose inner solve was optimal (per-shard
	// optima do not compose through the load-balancing term for λ < 1).
	// A merge of several shards is polished unless a shard timed out; a
	// single shard's layout is returned as its inner solver left it, so a
	// one-component run equals the direct solve.
	Optimal bool
	// TimedOut reports whether any shard's search was cut short.
	TimedOut bool
	// Iterations and Nodes are summed across shards.
	Iterations int
	Nodes      int
	// Runtime is the wall-clock time of the whole run.
	Runtime time.Duration
}

// Solve decomposes the model's instance and solves every component
// concurrently with opts.SolveShard. Grouping is NOT applied here — the model
// is already grouped when the caller enabled it — only the component split.
// The first shard error cancels the remaining shards and is returned;
// cancelling ctx aborts the run with an error wrapping ctx.Err().
func Solve(ctx context.Context, m *core.Model, opts Options) (*Result, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.SolveShard == nil {
		return nil, fmt.Errorf("decompose: no inner solver callback")
	}
	// The model is already grouped when the caller enabled grouping, so only
	// the component split runs here — under the model's constraint set, which
	// welds components coupled by cross-component constraints together and
	// hands every shard its projection of the set. The model's compile
	// validated the instance, and each shard's compile in solveOne validates
	// the shard.
	d, err := core.DecomposeModel(m)
	if err != nil {
		return nil, err
	}
	n := d.NumShards()
	if n == 0 {
		return nil, fmt.Errorf("decompose: instance has no solvable component")
	}

	// runCtx cancels the pool on the first shard error; the Until gate
	// guarantees no events escape after the run concluded or was cancelled.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	prog := opts.Progress.Until(runCtx)
	prog.Emit(progress.Event{
		Kind:    progress.KindMessage,
		Solver:  "decompose",
		Elapsed: time.Since(start),
		Message: fmt.Sprintf("split into %d shard(s), %d orphan table(s)", n, len(d.OrphanTables)),
	})

	// Warm start: project the previous solution onto every component. The
	// projection can only fail on a dimension mismatch (a stale hint the
	// caller did not adapt), in which case the whole hint is dropped.
	var warmShards []*core.Partitioning
	if opts.Warm != nil {
		warmShards = make([]*core.Partitioning, n)
		for i := range warmShards {
			wp, err := d.ProjectSolution(i, opts.Warm)
			if err != nil {
				prog.Emit(progress.Event{
					Kind:    progress.KindMessage,
					Solver:  "decompose",
					Elapsed: time.Since(start),
					Message: fmt.Sprintf("dropping warm hint: %v", err),
				})
				warmShards = nil
				break
			}
			warmShards[i] = wp
		}
	}
	// With a dirty set, clean components skip the solver entirely: their
	// sub-instance is untouched by the deltas, so the projected previous
	// solution is exactly as good as it was.
	reuse := make([]bool, n)
	reused := 0
	if warmShards != nil && opts.Dirty != nil {
		for i := range reuse {
			shard := d.Components[i].Instance
			tables := make([]string, len(shard.Schema.Tables))
			for j, t := range shard.Schema.Tables {
				tables[j] = t.Name
			}
			txns := make([]string, len(shard.Workload.Transactions))
			for j, t := range shard.Workload.Transactions {
				txns[j] = t.Name
			}
			if !opts.Dirty.Touches(tables, txns) {
				reuse[i] = true
				reused++
			}
		}
		prog.Emit(progress.Event{
			Kind:    progress.KindMessage,
			Solver:  "decompose",
			Elapsed: time.Since(start),
			Message: fmt.Sprintf("reusing %d of %d shard(s) untouched by the workload deltas", reused, n),
		})
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	states := make([]shardState, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if runCtx.Err() != nil {
					continue // drain without solving once the run is cancelled
				}
				var warm *core.Partitioning
				if warmShards != nil {
					warm = warmShards[i]
				}
				states[i] = solveOne(runCtx, d, i, m.Options(), prog, opts.SolveShard, warm, reuse[i])
				if states[i].err != nil {
					cancel() // first failure stops the remaining shards
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-runCtx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("decompose: %w", err)
	}
	// The caller did not cancel, so any cancellation errors among the shards
	// are collateral of the pool shutting down after a real failure — report
	// the root cause, not the first-by-index straggler's ctx error.
	var firstErr error
	firstShard := -1
	for i := range states {
		err := states[i].err
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr, firstShard = err, i
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("decompose: shard %d: %w", i, err)
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("decompose: shard %d: %w", firstShard, firstErr)
	}

	res := &Result{Shards: make([]ShardInfo, 0, n)}
	parts := make([]*core.Partitioning, n)
	complete := true
	for i := range states {
		out := states[i].outcome
		if out == nil {
			// The pool was cancelled before this shard ran; ctx.Err() above
			// already caught external cancellations, so this is unreachable
			// unless a shard failed (returned above). Guard anyway.
			return nil, fmt.Errorf("decompose: shard %d was not solved", i)
		}
		comp := &d.Components[i]
		res.Shards = append(res.Shards, ShardInfo{
			Shard:      i,
			Tables:     len(comp.Tables),
			Attrs:      len(comp.Attrs),
			Txns:       len(comp.Txns),
			Solver:     out.Solver,
			Seed:       out.Seed,
			Objective:  out.Cost.Objective,
			Optimal:    out.Optimal,
			TimedOut:   out.TimedOut,
			Iterations: out.Iterations,
			Nodes:      out.Nodes,
			Reused:     out.Reused,
			Runtime:    states[i].runtime,
		})
		if out.Reused {
			res.ShardsReused++
		}
		res.TimedOut = res.TimedOut || out.TimedOut
		res.Iterations += out.Iterations
		res.Nodes += out.Nodes
		parts[i] = out.Partitioning
		if out.Partitioning == nil {
			complete = false
		}
	}
	if !complete {
		// Some shard timed out without any incumbent: there is no feasible
		// merged partitioning to report (the paper's "t/o").
		res.TimedOut = true
		res.Runtime = time.Since(start)
		return res, nil
	}

	merged, cost, err := d.MergeSolutions(m, parts)
	if err != nil {
		return nil, err
	}
	res.Optimal = n == 1 && states[0].outcome.Optimal
	if n > 1 && !res.TimedOut {
		// Objective (6)'s balance term couples the shards through the sites
		// they share, so a merge of shards solved apart can still hold single
		// moves that pay; polish them out over the model that was split. A
		// timed-out run has spent its budget and keeps the merge as it is.
		merged, cost, err = polishMerged(ctx, m, merged, cost, opts)
		if err != nil {
			return nil, err
		}
	}
	res.Partitioning = merged
	res.Cost = cost
	res.Runtime = time.Since(start)
	prog.Emit(progress.Event{
		Kind:    progress.KindIncumbent,
		Solver:  "decompose",
		Cost:    cost.Balanced,
		Elapsed: time.Since(start),
		Message: fmt.Sprintf("merged %d shard(s)", n),
	})
	return res, nil
}

// polishMerged returns the merged layout moved to a local optimum over the
// source model (core.Polish) with its cost, holding one slot of the budget
// while the polish runs. The polish stops at opts.Deadline.
func polishMerged(ctx context.Context, m *core.Model, merged *core.Partitioning, cost core.Cost, opts Options) (*core.Partitioning, core.Cost, error) {
	if err := opts.Budget.Acquire(ctx); err != nil {
		return nil, cost, fmt.Errorf("decompose: %w", err)
	}
	defer opts.Budget.Release()
	if !opts.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, opts.Deadline)
		defer cancel()
	}
	p, moves, err := core.Polish(ctx, m, merged, opts.Disjoint)
	if err != nil || moves == 0 {
		return merged, cost, err
	}
	return p, m.Evaluate(p), nil
}

// shardState is one shard's slot in the pool's result array.
type shardState struct {
	outcome *ShardOutcome
	runtime time.Duration
	err     error
}

// solveOne compiles and solves (or, for a clean component of a warm run,
// reuses) a single shard.
func solveOne(ctx context.Context, d *core.Decomposition, i int, mo core.ModelOptions, prog progress.Func, solve SolveShardFunc, warm *core.Partitioning, reuse bool) (st shardState) {
	start := time.Now()
	var shardCons *core.Constraints
	if d.ShardConstraints != nil {
		shardCons = d.ShardConstraints[i]
	}
	sm, err := core.NewModelConstrained(d.Components[i].Instance, mo, shardCons)
	if err != nil {
		st.err = err
		return st
	}
	if reuse && warm != nil {
		// Validate rather than trust: an infeasible projection (impossible for
		// hints produced by this pipeline, but cheap to check) falls back to a
		// warm-seeded solve.
		if err := warm.Validate(sm); err == nil {
			st.outcome = &ShardOutcome{
				Reused:       true,
				Partitioning: warm,
				Cost:         sm.Evaluate(warm),
				Solver:       "reused",
			}
			st.runtime = time.Since(start)
			return st
		}
	}
	out, err := solve(ctx, i, sm, warm, prog.Named(fmt.Sprintf("decompose/shard[%d]", i)))
	st.runtime = time.Since(start)
	if err != nil {
		st.err = err
		return st
	}
	if out == nil {
		st.err = fmt.Errorf("inner solver returned no outcome")
		return st
	}
	st.outcome = out
	return st
}
