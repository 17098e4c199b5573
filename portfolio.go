package vpart

import (
	"context"
	"errors"
	"fmt"
	"time"

	"vpart/internal/core"
	"vpart/internal/seeds"
)

// DefaultPortfolioSASeeds is the number of concurrent SA runs the portfolio
// solver launches when PortfolioOptions.SASeeds is zero. With the default
// SAPar they make up a cold race on their own: four polished SA runs cost
// about half the CPU of the older four SA runs plus sa-par, and on the 8
// rndAt128x400c8 instances (4 sites, decompose) end 0.6 % cheaper.
const DefaultPortfolioSASeeds = 4

// PortfolioOptions configure the "portfolio" solver, which races several
// independently seeded SA runs — a parallel-tempering run with a warm hint,
// and optionally the exact QP solver — as concurrent goroutines and returns
// the best incumbent. Each child's layout is polished to a local optimum
// (no single drop, relocation or added replica lowers its cost) over the
// model it solved before the race compares it; a proven gap-free optimum is
// left as it is.
type PortfolioOptions struct {
	// SASeeds is the number of SA runs of a full race (default
	// DefaultPortfolioSASeeds): a cold solve, or a warm one whose hint did
	// not come out of a warm start. A warm race whose hint did
	// (Solution.WarmStart) runs only run 0, the warm-seeded one. Run i's
	// seed is derived from i and Options.Seed (or from a drawn seed when it
	// is zero), so a portfolio run with a fixed non-zero seed is
	// deterministic.
	SASeeds int
	// QP additionally races the exact QP solver. When it proves gap-free
	// optimality the still-running SA seeds are cancelled immediately —
	// their results cannot beat a proven optimum.
	QP bool
	// SAPar sizes the parallel-tempering child, one "sa-par" run alongside
	// the SASeeds plain SA runs. A positive value races it with SAPar
	// replicas, cold or warm. Zero races it with the default ladder size
	// only with a warm hint, where it refines the hint; a cold race then
	// runs the SA children alone, since polished SA runs reach the child's
	// cost for less CPU on the measured cold workload (not everywhere: on 4
	// sites, rndAt16x60 at seed 3 ends 3.1 % and rndAt32x120 at seed 2
	// 2.5 % costlier without it). A negative value drops it from every
	// race. The child keeps its index and seed either way, so the SA
	// children's trajectories do not depend on whether it runs.
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
	// The children's polishes end where their searches' time budget does.
	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}
	n := opts.Portfolio.SASeeds
	if n <= 0 {
		n = DefaultPortfolioSASeeds
	}
	saChild, ok := LookupSolver("sa")
	if !ok {
		return nil, fmt.Errorf("vpart: portfolio requires a registered %q solver", "sa")
	}
	hint := warmHint(opts)
	// The sa-par child keeps its index and seed whether or not this race
	// launches it: a cold race launches it only when SAPar sizes it, a warm
	// one unless SAPar drops it.
	saparSlot := opts.Portfolio.SAPar >= 0
	var saparChild Solver
	if opts.Portfolio.SAPar > 0 || (saparSlot && hint != nil) {
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
	if saparSlot {
		total++
	}
	if qpChild != nil {
		total++
	}
	// Reserve a whole block of derived seeds (one per child of the full race,
	// including the sa-par child and the QP child's SA-seeding run, whether
	// or not this race launches them) so that later Seed-0 solves in this
	// process cannot replay one of the children's trajectories. Child i draws
	// seeds.Derive(base, i); the sa-par child's replica seeds derive from its
	// child seed via seeds.Replica, provably outside every Derive block.
	base := opts.Seed
	if base == 0 {
		base = seedCounter.Add(int64(total)) - int64(total) + 1
	}
	// With a warm hint the first SA child and the sa-par child anneal from
	// the hint (cooler start, local refinement) and the QP child prunes
	// against it; a cold race runs sa-par only when SAPar sizes it. A hint
	// from a cold solve also races the cold restarts sa[1..n-1], keeping the
	// race honest: a drifted workload whose old incumbent traps the warm
	// children in a stale basin is still explored from scratch. A hint that
	// itself came out of a warm start
	// (Solution.WarmStart) means the last race was won from the basin it
	// continues, so only the warm-seeded children run. Every child keeps its
	// index, tag and seed either way, so the narrowed race returns what the
	// full race would have whenever a warm child wins it.
	saRuns := n
	if hint != nil && opts.Warm.WarmStart {
		saRuns = 1
	}
	type child struct {
		idx  int
		tag  string
		s    Solver
		opts Options
	}
	var lineup []child
	for i := 0; i < saRuns; i++ {
		warm := i == 0 && hint != nil
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
		lineup = append(lineup, child{i, tag, saChild, childOpts})
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
		lineup = append(lineup, child{next, "sa-par", saparChild, childOpts})
	}
	if saparSlot {
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
		lineup = append(lineup, child{next, "qp", qpChild, childOpts})
	}

	outcomes := make(chan childOutcome, len(lineup))
	for _, c := range lineup {
		// Gate the child's callback on the race context: once the portfolio
		// has concluded (winner found or caller cancelled), losing stragglers
		// must not keep emitting tagged events at the caller.
		c.opts.Progress = c.opts.Progress.Until(runCtx)
		go func() {
			res, err := c.s.Solve(runCtx, m, c.opts)
			if err == nil {
				err = polishChild(runCtx, m, res, opts.Disjoint, deadline)
			}
			outcomes <- childOutcome{idx: c.idx, tag: c.tag, res: res, err: err}
		}()
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
	for range lineup {
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

// polishChild moves a child's layout to a local optimum over the model the
// child solved (core.Polish) and re-evaluates its cost, so the race compares
// polished layouts. A proven gap-free optimum has no improving move, and a
// timed-out child has spent the time budget: both are left as they are. The
// polish stops at deadline when it is non-zero. It is leaf work: it holds
// one slot of the shared budget, like an SA run.
func polishChild(ctx context.Context, m *Model, res *Result, disjoint bool, deadline time.Time) error {
	if res == nil || res.Partitioning == nil || res.TimedOut || (res.Optimal && res.Gap <= 1e-12) {
		return nil
	}
	if err := solverBudget.Acquire(ctx); err != nil {
		return fmt.Errorf("vpart: %w", err)
	}
	defer solverBudget.Release()
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	p, moves, err := core.Polish(ctx, m, res.Partitioning, disjoint)
	if err != nil {
		return err
	}
	if moves > 0 {
		res.Partitioning = p
		res.Cost = m.Evaluate(p)
	}
	return nil
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
