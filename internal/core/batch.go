package core

// The batched move API: local-search solvers build a MoveBatch — a reusable,
// allocation-free list of typed moves — and apply or score it in one call.
// Plain SA's greedy intensification and the parallel-tempering solver's
// replicas share this single code path, so the move semantics (journalling,
// bitwise-exact undo, no-op handling) cannot drift between them.

// batchMove is one recorded move of a MoveBatch, in the evaluator's compact
// move vocabulary.
type batchMove struct {
	kind    moveKind
	x, site int32
}

// MoveBatch accumulates moves to be applied or scored as one unit. The zero
// value is ready to use; Reset empties it for reuse, so a solver-owned batch
// allocates only up to its high-water mark. A MoveBatch is independent of
// any evaluator: the same batch may be scored against several snapshots.
type MoveBatch struct {
	moves []batchMove
}

// Reset empties the batch, keeping its capacity.
//
//vpart:noalloc
func (b *MoveBatch) Reset() { b.moves = b.moves[:0] }

// Len returns the number of recorded moves.
//
//vpart:noalloc
func (b *MoveBatch) Len() int { return len(b.moves) }

// MoveTxn records a transaction relocation, like Evaluator.ApplyMoveTxn.
//
//vpart:noalloc
func (b *MoveBatch) MoveTxn(t, s int) {
	//vpartlint:allow noalloc batch capacity amortizes to the high-water mark; Reset reslices to [:0]
	b.moves = append(b.moves, batchMove{kind: mkMoveTxn, x: int32(t), site: int32(s)})
}

// AddReplica records a replica addition, like Evaluator.ApplyAddReplica.
//
//vpart:noalloc
func (b *MoveBatch) AddReplica(a, s int) {
	//vpartlint:allow noalloc batch capacity amortizes to the high-water mark; Reset reslices to [:0]
	b.moves = append(b.moves, batchMove{kind: mkAddReplica, x: int32(a), site: int32(s)})
}

// DropReplica records a replica removal, like Evaluator.ApplyDropReplica.
//
//vpart:noalloc
func (b *MoveBatch) DropReplica(a, s int) {
	//vpartlint:allow noalloc batch capacity amortizes to the high-water mark; Reset reslices to [:0]
	b.moves = append(b.moves, batchMove{kind: mkDropReplica, x: int32(a), site: int32(s)})
}

// ApplyBatch applies every move of the batch in order and returns the total
// balanced-objective delta — bit-identical to summing the corresponding
// ApplyMoveTxn/ApplyAddReplica/ApplyDropReplica calls, because it is exactly
// that loop. The moves join the evaluator's uncommitted journal: accept them
// with Commit or revert them (together with any earlier uncommitted moves)
// with Undo.
//
//vpart:noalloc
func (e *Evaluator) ApplyBatch(b *MoveBatch) float64 {
	delta := 0.0
	for i := range b.moves {
		mv := &b.moves[i]
		switch mv.kind {
		case mkMoveTxn:
			delta += e.ApplyMoveTxn(int(mv.x), int(mv.site))
		case mkAddReplica:
			delta += e.ApplyAddReplica(int(mv.x), int(mv.site))
		case mkDropReplica:
			delta += e.ApplyDropReplica(int(mv.x), int(mv.site))
		}
	}
	return delta
}

// ScoreBatch prices the batch against the evaluator's current state without
// leaving it applied: the moves are applied, their total delta recorded, and
// then undone down to the pre-call journal mark — earlier uncommitted moves
// survive untouched, and the restore is bitwise exact. Scoring N candidate
// batches against one snapshot is N ScoreBatch calls; the state between the
// calls is identical by construction.
//
//vpart:noalloc
func (e *Evaluator) ScoreBatch(b *MoveBatch) float64 {
	mark := len(e.journal)
	delta := e.ApplyBatch(b)
	e.undoTo(mark)
	return delta
}

// undoTo reverts journalled moves in reverse order down to the given journal
// mark. It never replays a move: every float a move changed is restored from
// its journal record (and the WriteRelevant per-access sums from betaLog), so
// only the placement bits and the integer counters are inverted. Undo is
// undoTo(0).
//
//vpart:noalloc
func (e *Evaluator) undoTo(mark int) {
	for i := len(e.journal) - 1; i >= mark; i-- {
		rec := &e.journal[i]
		if rec.noop {
			continue
		}
		switch rec.kind {
		case mkMoveTxn:
			e.unmoveTxn(int(rec.x), int(rec.prevSite))
			e.siteWork[rec.prevSite] = rec.work1
		case mkAddReplica:
			e.unflipReplica(int(rec.x), int(rec.site), false)
		case mkDropReplica:
			e.unflipReplica(int(rec.x), int(rec.site), true)
		}
		// Walking the log backwards to the move's mark assigns the oldest —
		// true — prior value of every touched sum last.
		for j := len(e.betaLog) - 1; j >= int(rec.betaMark); j-- {
			e.betaSum[e.betaLog[j].idx] = e.betaLog[j].prev
		}
		e.betaLog = e.betaLog[:rec.betaMark]
		e.siteWork[rec.site] = rec.work0
		e.readAccess = rec.readAccess
		e.writeAccess = rec.writeAccess
		e.transfer = rec.transfer
		e.transferGross = rec.transferGross
		e.latencyUnits = rec.latencyUnits
	}
	e.journal = e.journal[:mark]
}

// unmoveTxn puts transaction t back on site s, the site it left in the move
// being undone, and recounts the remote replicas of its write queries there.
// The replica bits and qTotal are those the move saw, because moves are undone
// in reverse order.
//
//vpart:noalloc
func (e *Evaluator) unmoveTxn(t, s int) {
	m, p := e.m, e.p
	p.TxnSite[t] = s
	if m.opts.LatencyPenalty > 0 {
		for _, q := range m.txnWriteQ[t] {
			own := int32(0)
			for _, ar := range m.writeQAlpha[q] {
				if p.AttrSites[ar.attr][s] {
					own += ar.mult
				}
			}
			e.qRemote[q] = e.qTotal[q] - own
		}
	}
}

// unflipReplica sets attribute a's bit on site s back to on, the value before
// the flip being undone, and inverts the flip's integer counters: the replica
// count, the site's stored bytes, the WriteRelevant written-attribute counts
// and the latency replica counts.
//
//vpart:noalloc
func (e *Evaluator) unflipReplica(a, s int, on bool) {
	m, p := e.m, e.p
	d := int32(-1)
	if on {
		d = 1
	}
	e.replicas[a] += d
	p.AttrSites[a][s] = on
	if e.siteBytes != nil {
		e.siteBytes[s] += int64(d) * int64(m.attrs[a].Width)
	}
	if m.opts.WriteAccounting == WriteRelevant {
		S := p.Sites
		for _, ref := range m.attrWriteAcc[a] {
			if ref.alpha {
				e.alphaCnt[int(ref.access)*S+s] += d
			}
		}
	}
	if m.opts.LatencyPenalty > 0 {
		for _, qr := range m.attrWriteQ[a] {
			e.qTotal[qr.query] += d * qr.mult
			if p.TxnSite[m.writeQTxn[qr.query]] != s {
				e.qRemote[qr.query] += d * qr.mult
			}
		}
	}
}
