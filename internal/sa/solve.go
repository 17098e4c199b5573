package sa

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"vpart/internal/core"
)

// Solve runs the simulated annealing heuristic (Algorithm 1) on the model.
// Cancelling the context aborts the run promptly with an error wrapping
// ctx.Err(); the softer Options.TimeLimit instead stops the search gracefully
// and returns the best solution found so far.
//
// The inner loop is move-based: candidates are proposed as typed move batches
// against one incremental core.Evaluator and accepted or rejected on the
// evaluator's balanced-objective delta, so no Partitioning.Clone and no full
// Model.Evaluate happens per iteration (see the package documentation).
//
// Solve is a thin driver over Chain — NewChain, RunLevel until the chain
// stops, Finish — so the monolithic solver and sapar's parallel-tempering
// replicas run the identical hot loop.
func Solve(ctx context.Context, m *core.Model, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sa: %w", err)
	}
	if opts.Sites == 1 {
		if err := opts.check(m); err != nil {
			return nil, err
		}
		start := time.Now()
		p := core.SingleSite(m, 1)
		if err := p.Validate(m); err != nil {
			return nil, fmt.Errorf("sa: single-site layout is infeasible under the constraints: %w", err)
		}
		cost := m.Evaluate(p)
		return &Result{Partitioning: p, Cost: cost, Runtime: time.Since(start)}, nil
	}

	c, err := NewChain(m, opts)
	if err != nil {
		return nil, err
	}
	for !c.Stopped() {
		if _, err := c.RunLevel(ctx); err != nil {
			return nil, err
		}
	}
	return c.Finish()
}

// findSolution implements the findSolution(fix) step of Algorithm 1: it
// re-optimises the vector that is not fixed, writing into p.
func (s *solver) findSolution(p *core.Partitioning, fix string) {
	if fix == "x" {
		// x is fixed, optimise y.
		if s.opts.Disjoint {
			s.solveYGivenXDisjoint(p)
		} else {
			s.solveYGivenX(p)
		}
		return
	}
	// y is fixed, optimise x.
	s.solveXGivenY(p)
}

// randomX assigns every transaction (or component, in disjoint mode) to a
// uniformly random site. Under placement constraints the draw is uniform
// over the transaction's allowed sites (pins collapse it to one).
func (s *solver) randomX(rng *rand.Rand, p *core.Partitioning) {
	if s.opts.Disjoint {
		for _, comp := range s.components {
			st := rng.Intn(s.sites)
			for _, t := range comp {
				p.TxnSite[t] = st
			}
		}
		return
	}
	for t := range p.TxnSite {
		s.missing = s.missing[:0]
		for st := 0; st < s.sites; st++ {
			if s.txnSiteOK(t, st) {
				s.missing = append(s.missing, st)
			}
		}
		if len(s.missing) == 0 {
			p.TxnSite[t] = 0 // unsatisfiable; ValidateConstraintSites rejects this earlier
			continue
		}
		p.TxnSite[t] = s.missing[rng.Intn(len(s.missing))]
	}
}

// moveCount returns the number of elements a perturbation touches: a fraction
// of n, but at least one.
func moveCount(n int, fraction float64) int {
	c := int(math.Round(float64(n) * fraction))
	if c < 1 {
		c = 1
	}
	if c > n {
		c = n
	}
	return c
}
