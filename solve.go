package vpart

import (
	"time"
)

// Solution is the result of a Solve call, expressed over the original
// (ungrouped) instance.
type Solution struct {
	// Partitioning is the best partitioning found, expressed over the
	// original (ungrouped) instance. Nil if the solver found none within its
	// limits.
	Partitioning *Partitioning
	// Cost is the cost breakdown of Partitioning under the original model;
	// Cost.Objective is the paper's objective (4).
	Cost Cost
	// Model is the compiled cost model of the original instance (useful for
	// formatting and further evaluation).
	Model *Model
	// Solver is the registered name of the solver that produced the
	// solution (for the portfolio, the winning child, e.g.
	// "portfolio/sa[2]").
	Solver string
	// Seed is the SA seed that produced the solution: the value passed in
	// Options.Seed, or the derived seed when that was zero. Zero for the
	// pure QP path, which uses no randomness.
	Seed int64
	// Optimal reports whether the solution was proven optimal within the MIP
	// gap (always false for the SA heuristic).
	Optimal bool
	// TimedOut reports whether a time limit stopped the search.
	TimedOut bool
	// WarmStart reports whether the solution came out of the warm-start
	// path: the winning solver run was seeded from Options.Warm (for the
	// portfolio, the warm-seeded child won the race; for decompose, the run
	// reused or warm-seeded its shards). Handed back in Options.Warm, it
	// narrows a portfolio race to its warm-seeded children.
	WarmStart bool
	// WarmRejected explains why a requested warm start was dropped and the
	// solve ran cold (site-count mismatch, un-adaptable dimensions, a hint
	// violating the solve's constraints). Empty when no hint was passed or
	// the hint was usable. The same reason is emitted as an EventMessage
	// progress event when the rejection happens.
	WarmRejected string
	// Runtime is the wall-clock solve time (including grouping and seeding).
	Runtime time.Duration
	// AttributeGroups is the number of attribute groups after the
	// reasonable-cuts preprocessing (equal to the attribute count when
	// grouping is disabled).
	AttributeGroups int
	// Nodes, Gap and Bound are filled by the QP solver (branch-and-bound
	// statistics); Iterations is filled by the SA solver (for the portfolio,
	// the total across all concurrent runs).
	Nodes      int
	Gap        float64
	Bound      float64
	Iterations int
	// Shards reports the per-component outcomes when the decompose
	// meta-solver ran (directly or via Options.Preprocess); nil otherwise.
	Shards []ShardInfo
}

// ShardsReused counts the decompose shards whose previous solution was
// reused verbatim because no workload delta touched their component (always
// zero outside warm decompose runs).
func (s *Solution) ShardsReused() int {
	n := 0
	for _, sh := range s.Shards {
		if sh.Reused {
			n++
		}
	}
	return n
}
