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
			st := rng.Intn(s.sites)
			if st == p.TxnSite[t] {
				continue
			}
			// Under constraints the target site must be allowed for the
			// transaction, and the replica additions the relocation drags
			// along (its read set plus their colocation partners) must all
			// be admissible. Checked before the first sub-move is applied,
			// so a rejected relocation leaves no partial batch to unwind.
			if s.cs != nil && (!ev.AllowMoveTxn(t, st) || !s.canDragReads(ev, t, st)) {
				continue
			}
			delta += ev.ApplyMoveTxn(t, st)
			for _, b := range s.drags[t] {
				if !p.AttrSites[b][st] {
					delta += ev.ApplyAddReplica(int(b), st)
				}
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
		s.missing = s.missing[:0]
		for st, on := range p.AttrSites[a] {
			if !on && (s.cs == nil || s.canExtendUnit(ev, a, st)) {
				s.missing = append(s.missing, st)
			}
		}
		if len(s.missing) == 0 {
			continue
		}
		st := s.missing[rng.Intn(len(s.missing))]
		for _, b := range s.unitMembers(a) {
			if !p.AttrSites[b][st] {
				delta += ev.ApplyAddReplica(int(b), st)
			}
		}
	}
	return delta
}

// canDragReads reports whether relocating transaction t to site st can
// legally drag along every missing read attribute and the colocation
// partners that must follow them: each addition admitted by
// Evaluator.AllowAddReplica, no separation among the pending additions
// themselves, and their combined widths within st's remaining capacity.
//
//vpart:noalloc
func (s *solver) canDragReads(ev *core.Evaluator, t, st int) bool {
	p := ev.Partitioning()
	var need int64
	s.dragBuf = s.dragBuf[:0]
	for _, b := range s.drags[t] {
		bi := int(b)
		if p.AttrSites[bi][st] {
			continue
		}
		if !ev.AllowAddReplica(bi, st) {
			return false
		}
		// The evaluator judges each addition against the live state, which
		// cannot see replicas this batch has not applied yet.
		for _, prev := range s.dragBuf {
			if containsInt32(s.cs.SeparatedFrom(bi), int32(prev)) {
				return false
			}
		}
		s.dragBuf = append(s.dragBuf, bi)
		need += int64(s.m.Attr(bi).Width)
	}
	// Colocation partners shared between two read attributes are counted
	// twice in need — a conservative over-estimate that can only reject, not
	// admit, a capacity-violating batch.
	headroom := ev.SiteHeadroom(st)
	return headroom < 0 || need <= headroom
}

// containsInt32 reports whether the sorted list contains v.
//
//vpart:noalloc
func containsInt32(sorted []int32, v int32) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == v
}

// canExtendUnit reports whether the whole unit of attribute a (its
// colocation group, or just a), which is missing on site st, may gain a
// replica there: each addition admitted by Evaluator.AllowAddReplica and
// their summed width within st's remaining capacity.
//
//vpart:noalloc
func (s *solver) canExtendUnit(ev *core.Evaluator, a, st int) bool {
	p := ev.Partitioning()
	var need int64
	for _, b := range s.unitMembers(a) {
		bi := int(b)
		if p.AttrSites[bi][st] {
			continue
		}
		if !ev.AllowAddReplica(bi, st) {
			return false
		}
		need += int64(s.m.Attr(bi).Width)
	}
	headroom := ev.SiteHeadroom(st)
	return headroom < 0 || need <= headroom
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
