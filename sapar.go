package vpart

import (
	"context"

	"vpart/internal/conc"
	"vpart/internal/sapar"
)

// solverBudget is the process-wide compute budget every leaf solver run
// shares, sized to GOMAXPROCS. Leaf computations — a whole SA or QP run, one
// parallel-tempering replica's temperature level — hold exactly one slot
// while they execute; composite solvers (portfolio, decompose, the sa-par
// coordinator) hold none while they wait. Nested compositions therefore
// cannot oversubscribe the machine: a portfolio of SA children inside a
// decompose run of many shards still computes on at most GOMAXPROCS cores,
// with everything else queued, and since no goroutine ever waits for a slot
// while holding one, the sharing cannot deadlock. Tests swap the variable to
// pin the budget.
var solverBudget = conc.Default()

// ParallelOptions configure the "sa-par" parallel-tempering solver; other
// solvers ignore them. The zero value selects the defaults.
type ParallelOptions struct {
	// Replicas is the temperature-ladder size K: that many annealing chains
	// run concurrently at staggered temperatures (replica k starts at
	// τ0·1.5^k) and attempt state exchanges every 2 temperature levels. Zero
	// selects the default (4); 1 degenerates to plain SA. See the package
	// documentation for choosing K.
	Replicas int
}

// saparSolver adapts internal/sapar to the Solver interface under the name
// "sa-par".
type saparSolver struct{}

func (saparSolver) Name() string { return "sa-par" }

func (saparSolver) Solve(ctx context.Context, m *Model, opts Options) (*Result, error) {
	so := saOptions(opts, effectiveSeed(opts.Seed))
	so.Progress = opts.Progress.Named("sa-par")
	res, err := sapar.Solve(ctx, m, sapar.Options{
		SA:       so,
		Replicas: opts.Parallel.Replicas,
		Budget:   solverBudget,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Partitioning: res.Partitioning,
		Cost:         res.Cost,
		Solver:       "sa-par",
		Seed:         so.Seed,
		TimedOut:     res.TimedOut,
		Runtime:      res.Runtime,
		Iterations:   res.Iterations,
		WarmStart:    res.WarmStart,
	}, nil
}
