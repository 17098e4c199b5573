package vpart

import (
	"context"
	"fmt"
	"time"

	"vpart/internal/core"
	"vpart/internal/decompose"
	"vpart/internal/seeds"
)

// Preprocessing pipelines for Options.Preprocess.
const (
	// PreprocessGroup applies only the reasonable-cuts attribute grouping
	// (Section 4) — the historical default.
	PreprocessGroup = "group"
	// PreprocessNone disables all preprocessing (equivalent to
	// DisableGrouping).
	PreprocessNone = "none"
	// PreprocessDecompose applies the grouping and then splits the instance
	// into the independent components of its table–transaction access graph,
	// solving every component concurrently with the selected solver
	// (Options.Solver) and merging the results exactly. Combine with
	// DisableGrouping to split without grouping.
	PreprocessDecompose = "decompose"
)

// ShardInfo describes one solved component of a decompose run (dimensions,
// inner solver, objective, search statistics).
type ShardInfo = decompose.ShardInfo

// DecomposeOptions configure the "decompose" meta-solver; other solvers
// ignore them.
type DecomposeOptions struct {
	// Solver names the registered solver that solves each shard; empty
	// selects "portfolio". "decompose" itself is rejected. When the decompose
	// pipeline is selected via Options.Preprocess instead of Options.Solver,
	// an empty Solver defaults to Options.Solver (the solver being wrapped);
	// a non-empty Solver is honoured either way.
	Solver string
	// Workers bounds the number of concurrently solved shards; 0 means
	// GOMAXPROCS.
	Workers int
}

// Decomposition is the result of the reasonable-cuts + component-split
// preprocessing pipeline (see DecomposeInstance).
type Decomposition = core.Decomposition

// DecomposedComponent is one independent sub-instance of a Decomposition.
type DecomposedComponent = core.Component

// DecomposeInstance applies the reasonable-cuts grouping (when group is true)
// and splits the instance into the connected components of its
// table–transaction access graph, each a standalone solvable Instance.
// Components share no cost term, so solving them independently and merging
// with Decomposition.MergeSolutions is exact.
func DecomposeInstance(inst *Instance, group bool) (*Decomposition, error) {
	return core.Decompose(inst, group)
}

// DecomposeInstanceConstrained is DecomposeInstance under a placement-
// constraint set: cross-component Colocate/Separate pairs weld the affected
// components into one shard, any SiteCapacity welds everything (the budget
// is shared), and each component receives its projection of the set
// (Decomposition.ShardConstraints) for compiling the shard models.
func DecomposeInstanceConstrained(inst *Instance, group bool, cons *Constraints) (*Decomposition, error) {
	return core.DecomposeConstrained(inst, group, cons)
}

// decomposeSolver adapts internal/decompose to the Solver interface: it
// splits the (already grouped) model into independent components and solves
// them concurrently with the inner solver from the registry.
type decomposeSolver struct{}

func (decomposeSolver) Name() string { return "decompose" }

// innerSolverName resolves the per-shard solver name.
func innerSolverName(opts Options) string {
	if opts.Decompose.Solver != "" {
		return opts.Decompose.Solver
	}
	return "portfolio"
}

func (decomposeSolver) ValidateOptions(opts Options, mo ModelOptions) error {
	name := innerSolverName(opts)
	if name == "decompose" {
		return fmt.Errorf("vpart: the decompose meta-solver cannot recurse into itself as the shard solver")
	}
	inner, ok := LookupSolver(name)
	if !ok {
		return fmt.Errorf("vpart: decompose: unknown shard solver %q (registered: %v)", name, Solvers())
	}
	if v, ok := inner.(OptionsValidator); ok {
		return v.ValidateOptions(opts, mo)
	}
	return nil
}

func (d decomposeSolver) Solve(ctx context.Context, m *Model, opts Options) (*Result, error) {
	if err := d.ValidateOptions(opts, m.Options()); err != nil {
		return nil, err
	}
	name := innerSolverName(opts)
	inner, _ := LookupSolver(name)

	// Options.TimeLimit is a budget for the whole solve. Shards may queue
	// behind the worker pool, so each one gets the time remaining when it is
	// dequeued rather than a fresh full budget — otherwise an 8-shard run on
	// 2 workers could take 4× the limit.
	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = time.Now().Add(opts.TimeLimit)
	}

	// Reserve the base seed once so every shard derives deterministically
	// from it: shard i runs with seeds.Derive(base, i). A single-component
	// instance therefore solves with exactly the seed a direct solve would
	// use, keeping the decompose-wrapped result bit-identical to it.
	base := effectiveSeed(opts.Seed)

	res, err := decompose.Solve(ctx, m, decompose.Options{
		Workers:  opts.Decompose.Workers,
		Warm:     warmHint(opts),
		Dirty:    opts.WarmDirty,
		Progress: opts.Progress,
		Disjoint: opts.Disjoint,
		Budget:   solverBudget,
		Deadline: deadline,
		SolveShard: func(ctx context.Context, shard int, sm *Model, warm *Partitioning, prog ProgressFunc) (*decompose.ShardOutcome, error) {
			shardOpts := opts
			shardOpts.Solver = name
			shardOpts.Seed = seeds.Derive(base, shard)
			shardOpts.Progress = prog
			shardOpts.WarmDirty = nil
			if warm != nil {
				// The shard hint is already projected onto the shard model.
				shardOpts.Warm = &Solution{Partitioning: warm}
			} else {
				shardOpts.Warm = nil
			}
			if !deadline.IsZero() {
				remaining := time.Until(deadline)
				if remaining < time.Millisecond {
					// Budget exhausted while queueing: still give the inner
					// solver a token limit so it returns its initial
					// incumbent immediately, marked TimedOut.
					remaining = time.Millisecond
				}
				shardOpts.TimeLimit = remaining
			}
			r, err := inner.Solve(ctx, sm, shardOpts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if r == nil {
				return nil, fmt.Errorf("%s: solver returned no result", name)
			}
			solver := r.Solver
			if solver == "" {
				solver = name
			}
			return &decompose.ShardOutcome{
				Partitioning: r.Partitioning,
				Cost:         r.Cost,
				Solver:       solver,
				Seed:         r.Seed,
				Optimal:      r.Optimal,
				TimedOut:     r.TimedOut,
				Iterations:   r.Iterations,
				Nodes:        r.Nodes,
			}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Partitioning: res.Partitioning,
		Cost:         res.Cost,
		Solver:       "decompose/" + name,
		Seed:         base,
		Optimal:      res.Optimal,
		TimedOut:     res.TimedOut,
		Runtime:      res.Runtime,
		Iterations:   res.Iterations,
		Nodes:        res.Nodes,
		WarmStart:    warmHint(opts) != nil,
		Shards:       res.Shards,
	}, nil
}
