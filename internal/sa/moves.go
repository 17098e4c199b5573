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
// dragging along AddReplica repair moves for the attributes the relocated
// transactions read — and the replication of a moveFraction share of the
// attributes is extended (relocated, in disjoint mode). The caller decides
// the batch's fate with ev.Commit or ev.Undo.
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
			if s.ct != nil {
				// Constrained: the target site must be allowed for the
				// transaction, and the replica additions the relocation drags
				// along (its read set plus their colocation partners) must fit
				// the replica caps, separations and capacity headroom. Checked
				// before the first sub-move is applied, so a rejected
				// relocation leaves no partial batch to unwind.
				if !s.txnSiteOK(t, st) || !s.canDragReads(ev, t, st) {
					continue
				}
				delta += ev.ApplyMoveTxn(t, st)
				for _, a := range s.m.TxnReadAttrs(t) {
					for _, b := range s.unitMembers(a) {
						if !p.AttrSites[b][st] {
							delta += ev.ApplyAddReplica(int(b), st)
						}
					}
				}
				continue
			}
			delta += ev.ApplyMoveTxn(t, st)
			for _, a := range s.m.TxnReadAttrs(t) {
				if !p.AttrSites[a][st] {
					delta += ev.ApplyAddReplica(a, st)
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
		if s.ct != nil {
			// Constrained: candidate sites are the missing ones the whole
			// unit (the attribute plus its colocation partners) may extend
			// to — allowed-site bitsets, separations, replica caps and
			// capacity all checked through the evaluator in O(1) per site, so
			// the hot loop never proposes a dead replica move.
			s.missing = s.missing[:0]
			for st, on := range p.AttrSites[a] {
				if !on && s.canExtendUnit(ev, a, st) {
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
			continue
		}
		s.missing = s.missing[:0]
		for st, on := range p.AttrSites[a] {
			if !on {
				s.missing = append(s.missing, st)
			}
		}
		if len(s.missing) == 0 {
			continue
		}
		delta += ev.ApplyAddReplica(a, s.missing[rng.Intn(len(s.missing))])
	}
	return delta
}

// canDragReads reports whether relocating transaction t to site st can
// legally drag along every missing read attribute (and the colocation
// partners that must follow them): no forbidden site, no separation
// conflict, replica caps respected and the combined widths within st's
// remaining capacity.
//
//vpart:noalloc
func (s *solver) canDragReads(ev *core.Evaluator, t, st int) bool {
	p := ev.Partitioning()
	var need int64
	headroom := ev.SiteHeadroom(st)
	s.dragBuf = s.dragBuf[:0]
	for _, a := range s.m.TxnReadAttrs(t) {
		for _, b := range s.unitMembers(a) {
			bi := int(b)
			if p.AttrSites[bi][st] {
				continue
			}
			if s.attrForbiddenAt(bi, st) || s.sepConflict(p, bi, st) {
				return false
			}
			if ev.Replicas(bi)+1 > s.cs.MaxReplicasOf(bi) {
				return false
			}
			// Separation among the pending additions themselves: the
			// live-state sepConflict above cannot see replicas this batch has
			// not applied yet.
			for _, prev := range s.dragBuf {
				if containsInt32(s.cs.SeparatedFrom(bi), int32(prev)) {
					return false
				}
			}
			s.dragBuf = append(s.dragBuf, bi)
			need += int64(s.m.Attr(bi).Width)
		}
	}
	// Colocation partners shared between two read attributes are counted
	// twice in need — a conservative over-estimate that can only reject, not
	// admit, a capacity-violating batch.
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
// colocation group, or just a) may gain a replica on site st.
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
		if s.attrForbiddenAt(bi, st) || s.sepConflict(p, bi, st) {
			return false
		}
		if ev.Replicas(bi)+1 > s.cs.MaxReplicasOf(bi) {
			return false
		}
		need += int64(s.m.Attr(bi).Width)
	}
	if need == 0 {
		return false // nothing to add
	}
	headroom := ev.SiteHeadroom(st)
	return headroom < 0 || need <= headroom
}

// intensify runs one findSolution(fix) pass of Algorithm 1 — the greedy
// re-optimisation of the vector that is not fixed — on a scratch copy of the
// evaluator's state, diffs the outcome against the current state into the
// solver's reusable core.MoveBatch and applies it with one ApplyBatch call,
// returning its delta. The caller commits or undoes the batch.
//
//vpart:noalloc
func (s *solver) intensify(ev *core.Evaluator, fixX bool) float64 {
	p := ev.Partitioning()
	if s.scratch == nil {
		s.scratch = p.Clone()
	} else {
		s.scratch.CopyFrom(p)
	}
	if fixX {
		s.findSolution(s.scratch, "x")
	} else {
		s.findSolution(s.scratch, "y")
	}
	if s.ct != nil && fixX && !s.scratchSatisfiesConstraints(s.scratch) {
		// The constrained greedy y-rebuild had to relax a capacity or
		// separation on its fallback path: price the batch as +Inf so the
		// Metropolis test rejects it without any move being applied.
		return math.Inf(1)
	}

	s.batch.Reset()
	for t, st := range s.scratch.TxnSite {
		if p.TxnSite[t] != st {
			s.batch.MoveTxn(t, st)
		}
	}
	// Additions before removals, so attributes keep at least one replica at
	// every intermediate step of the batch.
	for a, row := range s.scratch.AttrSites {
		cur := p.AttrSites[a]
		for st := range row {
			if row[st] && !cur[st] {
				s.batch.AddReplica(a, st)
			}
		}
	}
	for a, row := range s.scratch.AttrSites {
		cur := p.AttrSites[a]
		for st := range row {
			if !row[st] && cur[st] {
				s.batch.DropReplica(a, st)
			}
		}
	}
	return ev.ApplyBatch(&s.batch)
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
