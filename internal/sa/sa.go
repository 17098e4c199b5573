// Package sa implements the paper's second algorithm (Section 3): a simulated
// annealing heuristic for the vertical partitioning problem. The heuristic
// alternately fixes the transaction assignment x and the attribute assignment
// y and re-optimises the vector that is not fixed, accepting worse solutions
// with a probability that decreases with the temperature (Algorithm 1).
//
// The neighbourhood operators follow the paper: a move relocates a constant
// fraction (10 %) of the transactions and extends the replication of a
// constant fraction (10 %) of the attributes. The initial temperature follows
// Section 5.1: a solution that is 5 % worse than the incumbent is accepted
// with 50 % probability in the first round of iterations, giving
// τ₀ = −0.05·C*/ln 0.5.
//
// The subproblems ("findSolution" in Algorithm 1) are solved with fast greedy
// optimisers by default; they account for both the cost term (λ) and the
// load-balancing term (1−λ) of objective (6). A greedy pass prices each
// attribute on every site once, walking its non-zero cost terms
// (core.Model.AttrTerms) instead of scanning every site's transactions, and
// its processing orders depend on the model alone, so they are sorted once
// per solver rather than per pass.
//
// Placement constraints (core.Model.Constraints) narrow where the search may
// place things; they do not add a second search. The greedy y-pass places
// colocation groups as one unit and skips sites a unit may not use, and every
// relocation and replica extension a move proposes is checked with the
// evaluator's AllowMoveTxn and AllowAddReplica before it is applied. An
// unconstrained model carries the nil, empty constraint set, so it runs the
// same code with nothing to narrow: every unit is a single attribute and no
// check is consulted.
//
// The hot loop is move-based: every candidate is a set of moves (transaction
// relocations, replica additions/relocations plus the repair moves that keep
// reads single-sited) applied to one incremental core.Evaluator through its
// typed ApplyMoveTxn, ApplyAddReplica and ApplyDropReplica methods; the
// summed balanced-objective delta feeds the Metropolis test directly, and
// Undo rejects the set. The greedy findSolution passes are applied the same
// way every DefaultIntensifyEvery iterations, alternating the fixed vector:
// the pass runs on a scratch copy, and its difference from the current state
// is applied move by move. The loop performs no Partitioning.Clone and no
// full Model.Evaluate per iteration; Model.Evaluate remains the reference
// oracle for the returned result.
//
// A greedy pass depends only on the vector it holds fixed, and that vector
// often has not changed since the chain's last pass of the same kind: the
// moves in between were undone, or only the other vector moved. So each pass
// kind keeps a one-entry memo, the scratch copy its last pass left, holding
// the fixed vector it started from, the vector it rebuilt and (with x fixed,
// under constraints) the feasibility verdict. When the fixed vector is equal
// again the pass and the copy are skipped and only the rebuilt vector's
// difference is applied, in the same order, so every delta, Metropolis draw
// and fixed-seed result is unchanged. A pass whose result used more than its
// fixed vector is not recorded: one the cancellation probe cut short, or a
// pass with y fixed that left a transaction (or, disjoint, a component) on
// its current site because no site was feasible.
package sa

import (
	"fmt"
	"time"

	"vpart/internal/core"
	"vpart/internal/progress"
)

// Parameter values (the paper specifies the move fraction and the initial
// temperature rule; the remaining values are engineering choices). Options
// can override only InnerLoops and MaxOuterLoops.
const (
	// DefaultMoveFraction is the fraction of transactions/attributes touched
	// by a neighbourhood move (the paper found 10 % to work best).
	DefaultMoveFraction = 0.10
	// DefaultRho is the geometric cooling factor ρ.
	DefaultRho = 0.90
	// DefaultInnerLoops is the number L of inner iterations per temperature
	// level.
	DefaultInnerLoops = 40
	// DefaultMaxOuterLoops bounds the number of temperature levels.
	DefaultMaxOuterLoops = 80
	// DefaultNoImprovementLimit stops the search after this many consecutive
	// temperature levels without improving the best solution.
	DefaultNoImprovementLimit = 12
	// DefaultIntensifyEvery is the number of inner iterations between two
	// greedy findSolution re-optimisation passes in the move-based hot loop.
	DefaultIntensifyEvery = 8
	// DefaultAcceptWorsePct is the relative degradation accepted with 50 %
	// probability at the initial temperature (Section 5.1 uses 5 %).
	DefaultAcceptWorsePct = 0.05
	// DefaultWarmAcceptWorsePct replaces DefaultAcceptWorsePct in the τ₀ rule
	// for warm-started runs (Options.Initial): the hint is assumed to be near
	// a good basin, so the annealing starts cooler and refines instead of
	// first destroying the incumbent.
	DefaultWarmAcceptWorsePct = 0.01
	// DefaultWarmMoveFraction replaces DefaultMoveFraction for warm-started
	// runs: a cool anneal can only make progress with fine-grained moves —
	// the default 10 % batches produce deltas far above a refinement
	// temperature, so every proposal would be rejected and the run would
	// return the hint unchanged. Near-single-element moves keep the
	// Metropolis test meaningful (and each iteration an order of magnitude
	// cheaper).
	DefaultWarmMoveFraction = 0.01
	// DefaultWarmNoImprovementLimit replaces DefaultNoImprovementLimit for
	// warm-started runs: a refinement that has stopped improving is done —
	// waiting the cold default out roughly doubles the wall clock for no
	// measurable quality gain (the point of warm re-solving is to be fast).
	DefaultWarmNoImprovementLimit = 6
)

// Options control the SA solver.
type Options struct {
	// Sites is the number of sites |S|. Must be ≥ 1.
	Sites int
	// Seed seeds the pseudo random generator; runs with equal seeds are
	// deterministic. The package takes the seed literally (0 included); the
	// root vpart facade is responsible for deriving distinct seeds when the
	// caller asks for them.
	Seed int64
	// InnerLoops is the number of inner iterations L per temperature level;
	// zero means DefaultInnerLoops.
	InnerLoops int
	// MaxOuterLoops bounds the number of temperature levels; zero means
	// DefaultMaxOuterLoops.
	MaxOuterLoops int
	// Initial, when non-nil, warm-starts the search from the given
	// partitioning instead of a random assignment: the hint is copied,
	// repaired against the model and becomes the first incumbent, and the
	// search takes the warm parameter variants (initial temperature, move
	// fraction, no-improvement limit) so the annealing refines the hint
	// instead of melting it. The hint's dimensions must match the model
	// (carry a stale incumbent over with core.Carry and repair it first) and
	// its site count must equal Sites. In disjoint mode only the transaction
	// assignment is taken from the hint; the attribute assignment is rebuilt
	// disjointly around it.
	Initial *core.Partitioning
	// Disjoint forbids attribute replication. In this mode transactions that
	// share read attributes are moved as one component (single-sitedness
	// without replication forces them onto the same site).
	Disjoint bool
	// TimeLimit bounds the wall-clock time (0 = none). The paper gives the
	// heuristic 30 seconds per iteration; a whole-run limit is the practical
	// equivalent here. Unlike a context cancellation — which aborts with an
	// error — hitting the time limit returns the best solution found so far.
	TimeLimit time.Duration
	// Progress, when non-nil, receives typed progress events (new incumbents,
	// temperature-level milestones).
	Progress progress.Func
}

// DefaultOptions returns the solver configuration used in the experiments.
func DefaultOptions(sites int) Options {
	return Options{Sites: sites, Seed: 1}
}

func (o Options) withDefaults() Options {
	if o.InnerLoops == 0 {
		o.InnerLoops = DefaultInnerLoops
	}
	if o.MaxOuterLoops == 0 {
		o.MaxOuterLoops = DefaultMaxOuterLoops
	}
	return o
}

// check rejects options the model cannot be solved under: fewer than one
// site, or placement constraints combined with Disjoint or failing
// core.Model.ValidateConstraintSites on Sites sites.
func (o Options) check(m *core.Model) error {
	if o.Sites < 1 {
		return fmt.Errorf("sa: invalid site count %d", o.Sites)
	}
	if m.Constraints() != nil && o.Disjoint {
		return fmt.Errorf("sa: placement constraints are not supported in disjoint mode")
	}
	if err := m.ValidateConstraintSites(o.Sites); err != nil {
		return fmt.Errorf("sa: %w", err)
	}
	return nil
}

// moveFraction is the share of transactions and attributes a move perturbs.
func (o Options) moveFraction() float64 {
	if o.Initial != nil {
		return DefaultWarmMoveFraction
	}
	return DefaultMoveFraction
}

// noImprovementLimit is the number of temperature levels without a new best
// solution after which the search stops.
func (o Options) noImprovementLimit() int {
	if o.Initial != nil {
		return DefaultWarmNoImprovementLimit
	}
	return DefaultNoImprovementLimit
}

// Result is the outcome of an SA run.
type Result struct {
	// Partitioning is the best partitioning found.
	Partitioning *core.Partitioning
	// Cost is its full cost breakdown (Cost.Objective is the paper's
	// objective (4); Cost.Balanced is the value the heuristic minimises).
	Cost core.Cost
	// InitialTemperature is the τ₀ actually used.
	InitialTemperature float64
	// Iterations is the total number of inner iterations performed.
	Iterations int
	// OuterLoops is the number of temperature levels visited.
	OuterLoops int
	// Accepted counts accepted moves; Improved counts strict improvements of
	// the best solution.
	Accepted, Improved int
	// Runtime is the wall-clock duration.
	Runtime time.Duration
	// TimedOut reports whether the time limit stopped the search.
	TimedOut bool
	// WarmStart reports whether the run was seeded from Options.Initial.
	WarmStart bool
}
