package sa

// The move-based neighbourhood: perturbations and greedy intensification are
// proposed as typed move batches against one incremental core.Evaluator
// instead of mutating cloned partitionings. Every helper reuses the solver's
// scratch buffers so the steady-state inner loop is allocation-free.

import (
	"math"
	"math/rand"

	"vpart/internal/core"
)

// perturb proposes one neighbourhood move of Algorithm 1 as a batch of
// evaluator moves and returns its balanced-objective delta: a moveFraction
// share of the transactions (components in disjoint mode) is relocated —
// dragging along replica-addition repair moves for the attributes the
// relocated transactions read — and the replication of a moveFraction share
// of the attributes is extended (relocated, in disjoint mode). The caller
// decides the batch's fate with ev.Commit or ev.Undo.
//
//vpart:noalloc
func (s *solver) perturb(rng *rand.Rand, ev *core.Evaluator) float64 {
	if s.sites < 2 {
		return 0
	}
	p := ev.Partitioning()
	delta := 0.0

	// x-part: relocate transactions, repairing single-sitedness as we go.
	if s.opts.Disjoint {
		n := moveCount(len(s.components), s.opts.moveFraction())
		for i := 0; i < n; i++ {
			ci := rng.Intn(len(s.components))
			st := rng.Intn(s.sites)
			comp := s.components[ci]
			old := p.TxnSite[comp[0]]
			if st == old {
				continue
			}
			for _, t := range comp {
				delta += ev.ApplyMoveTxn(t, st)
			}
			// The component's read attributes move with it (replication is
			// forbidden in disjoint mode).
			for _, a := range s.compAttrs[ci] {
				delta += ev.ApplyAddReplica(a, st)
				delta += ev.ApplyDropReplica(a, old)
			}
		}
	} else {
		n := moveCount(len(p.TxnSite), s.opts.moveFraction())
		for i := 0; i < n; i++ {
			t := rng.Intn(len(p.TxnSite))
			// The target site must differ, be allowed for the transaction,
			// and admit every replica the relocation drags along (its read
			// set plus their colocation partners). Checked before the first
			// sub-move is applied, so a rejected relocation leaves no
			// partial batch to unwind.
			mv := core.Move{Kind: core.MoveTxn, X: t, Site: rng.Intn(s.sites)}
			if s.nb.Admissible(ev, mv) {
				delta += s.nb.Apply(ev, mv)
			}
		}
	}

	// y-part: extend the replication of random attributes (the paper's
	// neighbourhood); in disjoint mode relocate unread attributes instead.
	nA := len(p.AttrSites)
	n := moveCount(nA, s.opts.moveFraction())
	for i := 0; i < n; i++ {
		a := rng.Intn(nA)
		if s.opts.Disjoint {
			if len(s.readersOf[a]) > 0 {
				continue
			}
			st := rng.Intn(s.sites)
			if p.AttrSites[a][st] {
				continue
			}
			old := attrSite(p, a)
			delta += ev.ApplyAddReplica(a, st)
			delta += ev.ApplyDropReplica(a, old)
			continue
		}
		// Candidate sites are the missing ones the whole unit (the attribute
		// plus its colocation partners) may extend to, so the hot loop never
		// proposes a dead replica move.
		s.missing = s.nb.AddSites(ev, a, s.missing)
		if len(s.missing) == 0 {
			continue
		}
		st := s.missing[rng.Intn(len(s.missing))]
		delta += s.nb.Apply(ev, core.Move{Kind: core.AddUnit, X: a, Site: st})
	}
	return delta
}

// intensify runs one findSolution(fix) pass of Algorithm 1 — the greedy
// re-optimisation of the vector that is not fixed — and applies its
// difference from the evaluator's state move by move: transaction moves after
// a pass with y fixed, replica additions then removals after a pass with x
// fixed (the other vector is the one the pass held fixed, so it cannot
// differ). It returns the summed delta; the caller commits or undoes the
// moves. The pass runs on a copy of the state in its kind's memo target, and
// is skipped when recall finds the kind's last pass started from an equal
// fixed vector: the moves, and so the delta, are the ones a fresh pass would
// give.
//
//vpart:noalloc
func (s *solver) intensify(ev *core.Evaluator, fixX bool) float64 {
	p := ev.Partitioning()
	memo := s.recall(p, fixX)
	if memo == nil {
		memo = &s.xFromY
		fix := "y"
		if fixX {
			memo, fix = &s.yFromX, "x"
		}
		memo.out.CopyFrom(p)
		s.tainted = false
		s.findSolution(memo.out, fix)
		memo.reusable = !s.tainted
		memo.feasible = !fixX || s.cs == nil || s.scratchSatisfiesConstraints(memo.out)
	}
	out := memo.out

	// p is the evaluator's live partitioning, but every cell is compared
	// once and only a move on that same cell changes it, so applying as we
	// go yields the moves a diff against the pre-pass state would.
	delta := 0.0
	if !fixX {
		for t, st := range out.TxnSite {
			if p.TxnSite[t] != st {
				delta += ev.ApplyMoveTxn(t, st)
			}
		}
		return delta
	}
	if !memo.feasible {
		// The constrained greedy y-rebuild had to relax a capacity or
		// separation on its fallback path: price the pass as +Inf so the
		// Metropolis test rejects it without any move being applied.
		return math.Inf(1)
	}
	// Additions before removals, so attributes keep at least one replica at
	// every intermediate step.
	for a, row := range out.AttrSites {
		cur := p.AttrSites[a]
		for st := range row {
			if row[st] && !cur[st] {
				delta += ev.ApplyAddReplica(a, st)
			}
		}
	}
	for a, row := range out.AttrSites {
		cur := p.AttrSites[a]
		for st := range row {
			if !row[st] && cur[st] {
				delta += ev.ApplyDropReplica(a, st)
			}
		}
	}
	return delta
}

// attrSite returns the site of a non-replicated attribute (disjoint mode).
//
//vpart:noalloc
func attrSite(p *core.Partitioning, a int) int {
	for st, on := range p.AttrSites[a] {
		if on {
			return st
		}
	}
	return 0
}
