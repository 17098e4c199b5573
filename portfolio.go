package vpart

import (
	"context"
	"errors"
	"fmt"
	"time"

	"vpart/internal/seeds"
)

// DefaultPortfolioSASeeds is the number of concurrent SA runs the portfolio
// solver launches when PortfolioOptions.SASeeds is zero.
const DefaultPortfolioSASeeds = 4

// PortfolioOptions configure the "portfolio" solver, which races several
// independently seeded SA runs — and optionally the exact QP solver — as
// concurrent goroutines and returns the best incumbent.
type PortfolioOptions struct {
	// SASeeds is the number of concurrent SA runs (default
	// DefaultPortfolioSASeeds). Run i uses seed base+i, where base is
	// Options.Seed (or a derived seed when it is zero), so a portfolio run
	// with a fixed non-zero seed is deterministic.
	SASeeds int
	// QP additionally races the exact QP solver. When it proves gap-free
	// optimality the still-running SA seeds are cancelled immediately —
	// their results cannot beat a proven optimum.
	QP bool
	// SAPar sizes the parallel-tempering child: the lineup includes one
	// "sa-par" run with SAPar replicas alongside the SASeeds plain SA runs.
	// Zero keeps the child with the default ladder size; a negative value
	// drops it from the lineup (the historical SA-only race).
	SAPar int
}

// portfolioSolver implements the Solver interface on top of the registry: it
// looks up the "sa" (and optionally "qp") solvers and runs them concurrently.
type portfolioSolver struct{}

func (portfolioSolver) Name() string { return "portfolio" }

func (portfolioSolver) ValidateOptions(opts Options, mo ModelOptions) error {
	if opts.Portfolio.QP {
		return qpSolver{}.ValidateOptions(opts, mo)
	}
	return nil
}

// childOutcome is one child solver's result, tagged for deterministic
// tie-breaking (lower index wins on equal cost).
type childOutcome struct {
	idx int
	tag string
	res *Result
	err error
}

func (portfolioSolver) Solve(ctx context.Context, m *Model, opts Options) (*Result, error) {
	start := time.Now()
	n := opts.Portfolio.SASeeds
	if n <= 0 {
		n = DefaultPortfolioSASeeds
	}
	saChild, ok := LookupSolver("sa")
	if !ok {
		return nil, fmt.Errorf("vpart: portfolio requires a registered %q solver", "sa")
	}
	var saparChild Solver
	if opts.Portfolio.SAPar >= 0 {
		saparChild, ok = LookupSolver("sa-par")
		if !ok {
			return nil, fmt.Errorf("vpart: portfolio requires a registered %q solver", "sa-par")
		}
	}
	var qpChild Solver
	if opts.Portfolio.QP {
		qpChild, ok = LookupSolver("qp")
		if !ok {
			return nil, fmt.Errorf("vpart: portfolio requires a registered %q solver", "qp")
		}
		// Reject unsupported configurations up front rather than silently
		// racing without the explicitly requested QP child (the Solve facade
		// already checks via ValidateOptions; this guards direct interface
		// use).
		if m.Options().WriteAccounting == WriteRelevant {
			return nil, errQPWriteRelevant()
		}
	}

	// Children run under a shared cancellable context so that accepting a
	// winner (a proven-optimal QP result) stops the stragglers.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	total := n
	if saparChild != nil {
		total++
	}
	if qpChild != nil {
		total++
	}
	// Reserve a whole block of derived seeds (one per child, including the
	// QP child's SA-seeding run) so that later Seed-0 solves in this process
	// cannot replay one of the children's trajectories. Child i draws
	// seeds.Derive(base, i); the sa-par child's replica seeds derive from its
	// child seed via seeds.Replica, provably outside every Derive block.
	base := opts.Seed
	if base == 0 {
		base = seedCounter.Add(int64(total)) - int64(total) + 1
	}
	// With a warm hint the first SA child anneals from the hint (cooler
	// start, local refinement) while the rest start cold, keeping the race
	// honest: a drifted workload whose old incumbent traps the warm child in
	// a stale basin is still explored from scratch.
	warmChildren := 0
	if warmHint(opts) != nil {
		warmChildren = 1
	}
	outcomes := make(chan childOutcome, total)

	launch := func(idx int, tag string, s Solver, childOpts Options) {
		// Gate the child's callback on the race context: once the portfolio
		// has concluded (winner found or caller cancelled), losing stragglers
		// must not keep emitting tagged events at the caller.
		childOpts.Progress = childOpts.Progress.Until(runCtx)
		go func() {
			res, err := s.Solve(runCtx, m, childOpts)
			outcomes <- childOutcome{idx: idx, tag: tag, res: res, err: err}
		}()
	}

	for i := 0; i < n; i++ {
		warm := i < warmChildren
		tag := fmt.Sprintf("sa[%d]", i)
		if warm {
			tag = fmt.Sprintf("sa+warm[%d]", i)
		}
		childOpts := opts
		childOpts.Solver = "sa"
		childOpts.Seed = seeds.Derive(base, i)
		if !warm {
			childOpts.Warm = nil
		}
		childOpts.WarmDirty = nil
		childOpts.Progress = retag(opts.Progress, "portfolio/"+tag)
		launch(i, tag, saChild, childOpts)
	}
	next := n
	if saparChild != nil {
		// The parallel-tempering child explores with a whole temperature
		// ladder of its own; it shares the leaf budget with its siblings, so
		// adding it widens the race without oversubscribing the machine. It
		// keeps the warm hint when one is present — every replica then
		// anneals from it.
		childOpts := opts
		childOpts.Solver = "sa-par"
		childOpts.Seed = seeds.Derive(base, next)
		if opts.Portfolio.SAPar > 0 {
			childOpts.Parallel.Replicas = opts.Portfolio.SAPar
		}
		childOpts.WarmDirty = nil
		childOpts.Progress = retag(opts.Progress, "portfolio/sa-par")
		launch(next, "sa-par", saparChild, childOpts)
		next++
	}
	if qpChild != nil {
		childOpts := opts
		childOpts.Solver = "qp"
		// The QP child's optional SA-seeding run gets its own seed outside
		// the raced block, so with SeedWithSA it explores a trajectory none
		// of the SA children already cover.
		childOpts.Seed = seeds.Derive(base, next)
		childOpts.WarmDirty = nil
		childOpts.Progress = opts.Progress.Named("portfolio")
		launch(next, "qp", qpChild, childOpts)
	}

	var (
		best       *childOutcome
		childErr   error
		accepted   bool // a proven-optimal winner cancelled the stragglers
		timedOut   bool
		iterations int
	)
	better := func(c *childOutcome) bool {
		if c.res == nil || c.res.Partitioning == nil {
			return false
		}
		if best == nil {
			return true
		}
		d := c.res.Cost.Balanced - best.res.Cost.Balanced
		if d < -1e-12 {
			return true
		}
		if d > 1e-12 {
			return false
		}
		// Deterministic tie-breaks: a proven-optimal result beats an
		// equal-cost heuristic one, then the lower child index wins.
		if c.res.Optimal != best.res.Optimal {
			return c.res.Optimal
		}
		return c.idx < best.idx
	}
	for i := 0; i < total; i++ {
		c := <-outcomes
		if c.err != nil {
			// Stragglers cancelled after an accepted winner report ctx errors;
			// those are expected, not failures.
			if accepted && (errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) {
				continue
			}
			if ctx.Err() == nil {
				opts.Progress.Emit(Event{
					Kind:    EventMessage,
					Solver:  "portfolio",
					Elapsed: time.Since(start),
					Message: fmt.Sprintf("child %s failed: %v", c.tag, c.err),
				})
				if childErr == nil {
					childErr = fmt.Errorf("vpart: portfolio child %s: %w", c.tag, c.err)
				}
			}
			continue
		}
		if c.res != nil {
			timedOut = timedOut || c.res.TimedOut
			iterations += c.res.Iterations
		}
		if better(&c) {
			cc := c
			best = &cc
			opts.Progress.Emit(Event{
				Kind:    EventIncumbent,
				Solver:  "portfolio",
				Cost:    c.res.Cost.Balanced,
				Elapsed: time.Since(start),
				Message: "accepted incumbent from " + c.tag,
			})
		}
		if c.res != nil && c.res.Optimal && c.res.Gap <= 1e-12 && !accepted {
			// A gap-free proven optimum cannot be beaten: accept it and
			// cancel the still-running seeds. A within-gap "optimum"
			// (Gap > 0) does not qualify — a straggler could still come in
			// up to GapTol cheaper, so those children are left to finish
			// and the best-incumbent comparison decides.
			accepted = true
			cancel()
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("vpart: portfolio: %w", err)
	}
	if best == nil {
		if childErr != nil {
			return nil, childErr
		}
		// Every child timed out without an incumbent (the paper's "t/o").
		return &Result{Solver: "portfolio", TimedOut: timedOut, Runtime: time.Since(start)}, nil
	}

	out := *best.res
	out.Solver = "portfolio/" + best.tag
	out.Runtime = time.Since(start)
	// A proven-optimal winner makes the other children's soft time-outs
	// irrelevant; otherwise any cut-short child means the portfolio's search
	// was cut short too.
	out.TimedOut = timedOut && !best.res.Optimal
	out.Iterations = iterations
	return &out, nil
}

// retag returns a ProgressFunc that overrides the event's solver tag before
// forwarding to f; nil-safe.
func retag(f ProgressFunc, tag string) ProgressFunc {
	if f == nil {
		return nil
	}
	return func(e Event) {
		e.Solver = tag
		f(e)
	}
}
