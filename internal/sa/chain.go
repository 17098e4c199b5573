package sa

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"vpart/internal/core"
	"vpart/internal/progress"
)

// Chain is one annealing chain of Algorithm 1, exposed at the granularity the
// parallel-tempering solver steps it: construction (cold or warm start, the
// Section 5.1 initial-temperature rule), one temperature level at a time
// (RunLevel), incumbent exchange between chains (SwapState) and the final
// greedy polish (Finish). Solve is exactly NewChain + RunLevel-until-stopped +
// Finish, so the monolithic solver and sapar's replicas share one hot-loop
// implementation and cannot drift apart.
//
// A Chain is not safe for concurrent use. The parallel-tempering solver
// confines each chain to one worker goroutine per round and touches chains
// from the coordinating goroutine only at WaitGroup barriers, which provide
// the necessary happens-before edges.
type Chain struct {
	m    *core.Model
	s    *solver
	ev   *core.Evaluator
	rng  *rand.Rand
	opts Options
	res  *Result

	start    time.Time
	deadline time.Time

	tau               float64
	fixX              bool
	level             int
	noImprove         int
	improvedThisLevel bool
	stopped           bool

	best     *core.EvalSnapshot
	bestCost float64
	curCost  float64

	xchg *core.EvalSnapshot // SwapState scratch, allocated on first use
}

// NewChain builds a chain over the model: defaults and validation, the warm
// or cold initial solution, the incremental evaluator and the initial
// temperature — everything up to (but not including) the first annealing
// iteration. Chains need at least two sites; the single-site case has nothing
// to anneal (Solve handles it with a closed-form layout).
func NewChain(m *core.Model, opts Options) (*Chain, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Sites < 2 {
		return nil, fmt.Errorf("sa: a chain needs at least 2 sites (use Solve for the single-site case)")
	}
	if m.Constraints() != nil {
		if opts.Disjoint {
			return nil, fmt.Errorf("sa: placement constraints are not supported in disjoint mode")
		}
		if err := m.ValidateConstraintSites(opts.Sites); err != nil {
			return nil, fmt.Errorf("sa: %w", err)
		}
	}
	return newChain(m, opts)
}

// newChain is NewChain after validation: the construction sequence is kept
// bit-compatible with the historical monolithic Solve (same RNG draw order,
// same temperature rule), because fixed-seed regression tests across the
// repository pin the resulting trajectories.
func newChain(m *core.Model, opts Options) (*Chain, error) {
	c := &Chain{m: m, opts: opts, start: time.Now()}
	if opts.TimeLimit > 0 {
		c.deadline = c.start.Add(opts.TimeLimit)
	}
	c.rng = rand.New(rand.NewSource(opts.Seed))
	c.s = newSolver(m, opts)
	// Arm the greedy passes' in-pass cancellation probe before the initial
	// findSolution runs, so a tight TimeLimit binds during construction too.
	c.armStop(nil)
	cons := m.Constraints()

	var cur *core.Partitioning
	warm := opts.Initial != nil
	if warm {
		init := opts.Initial
		if init.Sites != opts.Sites {
			return nil, fmt.Errorf("sa: warm start uses %d sites, options say %d", init.Sites, opts.Sites)
		}
		if len(init.TxnSite) != m.NumTxns() || len(init.AttrSites) != m.NumAttrs() {
			return nil, fmt.Errorf("sa: warm start has %d txns × %d attrs, model has %d × %d",
				len(init.TxnSite), len(init.AttrSites), m.NumTxns(), m.NumAttrs())
		}
		cur = init.Clone()
		if opts.Disjoint {
			// Keep the hint's transaction assignment; rebuild the attribute
			// assignment disjointly (the hint may carry replicas).
			c.s.findSolution(cur, "x")
		}
		cur.Repair(m)
		if cons != nil && cur.Validate(m) != nil {
			// The repaired hint still violates a non-repairable constraint
			// (separation, replica cap, capacity): fall back to a cold
			// constrained start rather than annealing from infeasibility.
			warm = false
		}
	}
	if cur == nil || !warm {
		cur = core.NewPartitioning(m.NumTxns(), m.NumAttrs(), opts.Sites)
		c.s.randomX(c.rng, cur)
		c.s.findSolution(cur, "x")
		cur.Repair(m)
	}
	if cons != nil {
		if err := cur.Validate(m); err != nil {
			return nil, fmt.Errorf("sa: no constraint-feasible initial solution found: %w", err)
		}
	}
	ev, err := core.NewEvaluator(m, cur)
	if err != nil {
		return nil, fmt.Errorf("sa: %w", err)
	}
	c.ev = ev
	c.curCost = ev.Balanced()
	c.best = ev.Snapshot()
	c.bestCost = c.curCost

	c.res = &Result{WarmStart: warm}
	// Section 5.1: accept a 5 % worse solution with probability 50 % at the
	// initial temperature. Warm starts begin an order of magnitude cooler —
	// the hint is already in a good basin.
	pct := DefaultAcceptWorsePct
	if warm {
		pct = DefaultWarmAcceptWorsePct
	}
	tau := pct * c.bestCost / math.Ln2
	if tau <= 0 {
		tau = 1
	}
	c.tau = tau
	c.res.InitialTemperature = tau
	c.fixX = true
	return c, nil
}

// armStop points the greedy passes' cancellation probe at the given context
// (may be nil) plus the chain's deadline, so TimeLimit and Stop-style
// cancellation are consulted inside the intensify/findSolution passes, not
// only between inner iterations.
func (c *Chain) armStop(ctx context.Context) {
	if ctx == nil && c.deadline.IsZero() {
		c.s.stop = nil
		return
	}
	c.s.stop = func() bool {
		if ctx != nil && ctx.Err() != nil {
			return true
		}
		//vpartlint:allow determinism deadline enforcement is inherently wall-clock; results only vary when the run would time out anyway
		return !c.deadline.IsZero() && time.Now().After(c.deadline)
	}
}

// commit accepts the evaluator's pending move batch and tracks the best
// incumbent via an O(attrs·sites) snapshot, taken only on strict
// improvements.
func (c *Chain) commit() {
	c.ev.Commit()
	c.curCost = c.ev.Balanced()
	c.res.Accepted++
	if c.curCost < c.bestCost-1e-12 {
		c.bestCost = c.curCost
		c.ev.SnapshotTo(c.best)
		c.res.Improved++
		c.improvedThisLevel = true
		c.opts.Progress.Emit(progress.Event{
			Kind:      progress.KindIncumbent,
			Cost:      c.bestCost,
			Iteration: c.res.Iterations,
			Elapsed:   time.Since(c.start),
		})
	}
}

// RunLevel anneals one temperature level — InnerLoops Metropolis iterations
// plus the periodic greedy intensification — then cools and updates the
// stopping state. It returns stopped=true once the chain is done (time limit,
// no-improvement limit, temperature floor or level budget); further calls
// return true immediately. A context cancellation aborts with an error
// wrapping ctx.Err(), like Solve.
func (c *Chain) RunLevel(ctx context.Context) (stopped bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.stopped {
		return true, nil
	}
	if c.level >= c.opts.MaxOuterLoops {
		c.stopped = true
		return true, nil
	}
	c.armStop(ctx)
	c.res.OuterLoops++
	c.improvedThisLevel = false
	for i := 0; i < c.opts.InnerLoops; i++ {
		if err := ctx.Err(); err != nil {
			return false, fmt.Errorf("sa: %w", err)
		}
		//vpartlint:allow determinism deadline enforcement is inherently wall-clock; results only vary when the run would time out anyway
		if !c.deadline.IsZero() && time.Now().After(c.deadline) {
			c.res.TimedOut = true
			c.stopped = true
			return true, nil
		}
		c.res.Iterations++

		// Neighbourhood move: perturb x and y as one batch of evaluator
		// moves and run the Metropolis test on its delta.
		delta := c.s.perturb(c.rng, c.ev)
		if delta <= 0 || c.rng.Float64() < math.Exp(-delta/c.tau) {
			c.commit()
		} else {
			c.ev.Undo()
		}

		// The findSolution(fix) step of Algorithm 1, amortised: greedily
		// re-optimise the non-fixed vector and apply the outcome as one
		// diffed move batch, subject to the same Metropolis test.
		if c.res.Iterations%DefaultIntensifyEvery == 0 {
			delta := c.s.intensify(c.ev, c.fixX)
			c.fixX = !c.fixX
			if delta <= 0 || c.rng.Float64() < math.Exp(-delta/c.tau) {
				c.commit()
			} else {
				c.ev.Undo()
			}
		}
	}
	c.opts.Progress.Emit(progress.Event{
		Kind:      progress.KindIteration,
		Cost:      c.curCost,
		Iteration: c.res.Iterations,
		Elapsed:   time.Since(c.start),
		Message:   fmt.Sprintf("level %d τ=%.4g best=%.6g", c.level, c.tau, c.bestCost),
	})
	c.tau *= DefaultRho
	if c.improvedThisLevel {
		c.noImprove = 0
	} else {
		c.noImprove++
		if c.noImprove >= c.opts.noImprovementLimit() {
			c.stopped = true
		}
	}
	if c.tau < c.res.InitialTemperature*1e-6 {
		c.stopped = true
	}
	c.level++
	return c.stopped, nil
}

// Finish restores the best incumbent, polishes it with one greedy pass per
// subproblem (each kept only when it strictly improves) and returns the
// result. Call it once, after the level loop; the chain must not be stepped
// afterwards.
func (c *Chain) Finish() (*Result, error) {
	c.ev.Restore(c.best)
	for _, fx := range []bool{true, false} {
		if d := c.s.intensify(c.ev, fx); d < -1e-12 {
			c.ev.Commit()
		} else {
			c.ev.Undo()
		}
	}
	final := c.ev.Partitioning().Clone()
	final.Repair(c.m)
	if c.m.Constraints() != nil {
		if err := final.Validate(c.m); err != nil {
			return nil, fmt.Errorf("sa: search left the constraint-feasible region: %w", err)
		}
	}
	c.res.Partitioning = final
	c.res.Cost = c.m.Evaluate(final)
	c.res.Runtime = time.Since(c.start)
	return c.res, nil
}

// SwapState exchanges the two chains' current annealing states — the
// parallel-tempering replica exchange. Temperatures stay attached to the
// chains (swapping states or temperatures is equivalent; states keep the
// snapshots cheap); each chain's incumbent is updated when the state it
// adopted beats it. The caller is responsible for the acceptance decision
// and for calling this only at synchronisation points.
func (c *Chain) SwapState(o *Chain) {
	if c == o {
		return
	}
	if c.xchg == nil {
		c.xchg = c.ev.Snapshot()
	} else {
		c.ev.SnapshotTo(c.xchg)
	}
	if o.xchg == nil {
		o.xchg = o.ev.Snapshot()
	} else {
		o.ev.SnapshotTo(o.xchg)
	}
	c.ev.Restore(o.xchg)
	o.ev.Restore(c.xchg)
	c.curCost, o.curCost = o.curCost, c.curCost
	c.adopt()
	o.adopt()
}

// adopt folds a state acquired through SwapState into the chain's incumbent
// tracking: a strictly better current state becomes the new best and clears
// the no-improvement counter (the chain is plainly not stuck).
func (c *Chain) adopt() {
	if c.curCost < c.bestCost-1e-12 {
		c.bestCost = c.curCost
		c.ev.SnapshotTo(c.best)
		c.res.Improved++
		c.noImprove = 0
	}
}

// Temperature returns the chain's current temperature τ.
func (c *Chain) Temperature() float64 { return c.tau }

// SetTemperature overrides the chain's temperature — the parallel-tempering
// solver staggers its ladder with it right after construction. Called before
// the first RunLevel it also rebases the temperature floor (and the reported
// InitialTemperature); later calls only change the live temperature.
func (c *Chain) SetTemperature(tau float64) {
	c.tau = tau
	if c.level == 0 && c.res.Iterations == 0 {
		c.res.InitialTemperature = tau
	}
}

// BestCost returns the balanced objective of the chain's best incumbent.
func (c *Chain) BestCost() float64 { return c.bestCost }

// CurrentCost returns the balanced objective of the chain's current state —
// the energy the replica-exchange acceptance rule compares.
func (c *Chain) CurrentCost() float64 { return c.curCost }

// Rand exposes the chain's private random generator so exchange decisions can
// be drawn from replica-local randomness at synchronisation points (never
// from goroutine arrival order), keeping parallel runs deterministic.
func (c *Chain) Rand() *rand.Rand { return c.rng }

// Stopped reports whether the chain has reached one of its stopping
// conditions.
func (c *Chain) Stopped() bool { return c.stopped }

// TimedOut reports whether the chain's TimeLimit stopped it.
func (c *Chain) TimedOut() bool { return c.res.TimedOut }

// WarmStart reports whether the chain annealed from Options.Initial.
func (c *Chain) WarmStart() bool { return c.res.WarmStart }

// Stats returns a copy of the chain's running counters (Partitioning and
// Cost are only filled in by Finish).
func (c *Chain) Stats() Result { return *c.res }
