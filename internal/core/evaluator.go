package core

import "fmt"

// moveKind tags journal records.
type moveKind uint8

const (
	mkMoveTxn moveKind = iota
	mkAddReplica
	mkDropReplica
)

// undoRec is one journal entry: the move that was applied plus the exact
// scalar state right before it, so Undo restores the accumulators bitwise
// instead of relying on floating point arithmetic to invert itself.
type undoRec struct {
	kind moveKind
	noop bool
	// x is the transaction (mkMoveTxn) or attribute (mkAdd/DropReplica);
	// site is the move's target site; prevSite the transaction's old site.
	x, site, prevSite int32
	// Scalar accumulators before the move.
	readAccess, writeAccess, transfer, transferGross, latencyUnits float64
	// work0 is siteWork[site] before the move; work1 is siteWork[prevSite]
	// (mkMoveTxn only).
	work0, work1 float64
	// betaMark is the length of the betaLog when the move was applied
	// (WriteRelevant only): Undo restores the per-access sums logged past it.
	betaMark int32
}

// betaRec is one WriteRelevant per-access sum before a replica flip touched
// it; logged so Undo restores betaSum bitwise like every other accumulator.
type betaRec struct {
	idx  int32
	prev float64
}

// Evaluator incrementally re-evaluates the cost of a partitioning under a
// stream of moves: ApplyMoveTxn, ApplyAddReplica and ApplyDropReplica. It
// owns a private copy of the partitioning it was created from and keeps the
// full Cost breakdown — ReadAccess, WriteAccess under all three
// WriteAccounting modes, Transfer, per-site work and the Appendix A latency
// extension — consistent after every move in time proportional to the cost
// terms touching the moved transaction or attribute, instead of the
// O(attrs·txns) full Model.Evaluate.
//
// Moves are journalled: Undo reverts everything applied since the last
// Commit (or Restore), Commit accepts the moves. Snapshot and Restore give
// O(attrs·sites) best-incumbent bookkeeping for local-search solvers.
//
// Model.Evaluate remains the reference oracle: after any move sequence,
// Cost() equals Model.Evaluate(Partitioning()) up to floating point
// accumulation order.
//
// An Evaluator is not safe for concurrent use.
type Evaluator struct {
	m *Model
	p *Partitioning

	// replicas[a] caches Σ_s y[a][s].
	replicas []int32

	readAccess    float64
	writeAccess   float64
	transfer      float64 // raw B, may carry cancellation noise below zero
	transferGross float64 // Σ_a transferTotal(a)·replicas(a), for the clamp
	latencyUnits  float64
	siteWork      []float64

	// Latency counters (LatencyPenalty > 0 only): per write query the number
	// of (written-attribute occurrence, replica site) pairs in total and on
	// sites other than the owning transaction's site. ψ_q = qRemote[q] > 0.
	qTotal, qRemote []int32

	// WriteRelevant counters (that accounting mode only), indexed
	// access·sites+site: the number of written attributes of the access stored
	// on the site, and the fraction weight of the access's table stored there.
	alphaCnt []int32
	betaSum  []float64
	// betaLog records every betaSum entry's prior value per uncommitted flip,
	// so Undo restores the sums bitwise instead of arithmetically.
	betaLog []betaRec

	// Placement-constraint tables (constrained models only): the flattened
	// allowed-site bitsets plus the per-site stored bytes maintained on every
	// replica flip, so AllowMoveTxn / AllowAddReplica / AllowDropReplica run
	// in O(1) (O(separation partners) for separated attributes) and the hot
	// loop never proposes a dead move. ct and cs are nil for unconstrained
	// models, whose every Allow answer is true.
	ct        *ConstraintTables
	cs        *ConstraintSet
	siteBytes []int64

	journal []undoRec

	// raw is balancedRaw of the current state while rawOK holds: the value
	// the last move ended on, kept as the next move's start. Undo, Restore
	// and reinit drop it.
	raw   float64
	rawOK bool
}

// NewEvaluator compiles an incremental evaluator for the partitioning under
// the model. The partitioning is deep-copied — later mutations of p are not
// seen; edit through the Apply methods instead. Only the dimensions of p are
// validated (an infeasible partitioning still has a well defined cost).
func NewEvaluator(m *Model, p *Partitioning) (*Evaluator, error) {
	if p.Sites <= 0 {
		return nil, fmt.Errorf("evaluator: non-positive site count %d", p.Sites)
	}
	if len(p.TxnSite) != m.NumTxns() {
		return nil, fmt.Errorf("evaluator: %d transactions, model has %d", len(p.TxnSite), m.NumTxns())
	}
	if len(p.AttrSites) != m.NumAttrs() {
		return nil, fmt.Errorf("evaluator: %d attributes, model has %d", len(p.AttrSites), m.NumAttrs())
	}
	for a := range p.AttrSites {
		if len(p.AttrSites[a]) != p.Sites {
			return nil, fmt.Errorf("evaluator: attribute %s has %d site slots, want %d",
				m.Attr(a).Qualified, len(p.AttrSites[a]), p.Sites)
		}
	}
	for t, s := range p.TxnSite {
		if s < 0 || s >= p.Sites {
			return nil, fmt.Errorf("evaluator: transaction %q assigned to invalid site %d", m.TxnName(t), s)
		}
	}
	e := &Evaluator{
		m:        m,
		p:        p.Clone(),
		replicas: make([]int32, m.NumAttrs()),
		siteWork: make([]float64, p.Sites),
	}
	if m.opts.LatencyPenalty > 0 {
		e.qTotal = make([]int32, len(m.writeQFreq))
		e.qRemote = make([]int32, len(m.writeQFreq))
	}
	if m.opts.WriteAccounting == WriteRelevant {
		e.alphaCnt = make([]int32, m.numWriteAcc*p.Sites)
		e.betaSum = make([]float64, m.numWriteAcc*p.Sites)
	}
	if m.cons != nil {
		e.cs = m.cons
		e.ct = m.cons.Tables(m, p.Sites)
		e.siteBytes = make([]int64, p.Sites)
	}
	e.reinit()
	return e, nil
}

// reinit computes every accumulator from scratch (the one full evaluation an
// Evaluator ever performs).
func (e *Evaluator) reinit() {
	m, p := e.m, e.p
	S := p.Sites
	e.rawOK = false

	e.readAccess, e.writeAccess, e.transfer, e.transferGross, e.latencyUnits = 0, 0, 0, 0, 0
	for s := range e.siteWork {
		e.siteWork[s] = 0
	}
	for a := range p.AttrSites {
		e.replicas[a] = int32(p.Replicas(a))
	}
	if e.siteBytes != nil {
		for s := range e.siteBytes {
			e.siteBytes[s] = 0
		}
		for a := range p.AttrSites {
			w := int64(m.attrs[a].Width)
			for s, on := range p.AttrSites[a] {
				if on {
					e.siteBytes[s] += w
				}
			}
		}
	}

	// A_R, the read part of the site work and the own-site transfer savings.
	for t := 0; t < m.NumTxns(); t++ {
		st := p.TxnSite[t]
		for _, tc := range m.txnTerms[t] {
			if !p.AttrSites[tc.Attr][st] {
				continue
			}
			e.readAccess += tc.C3
			e.siteWork[st] += tc.C3
			e.transfer -= tc.Xfer
		}
	}

	// The write part of the site work, gross transfer and WriteAll A_W.
	for a := 0; a < m.NumAttrs(); a++ {
		if c4 := m.C4(a); c4 != 0 {
			for s := 0; s < S; s++ {
				if p.AttrSites[a][s] {
					e.siteWork[s] += c4
				}
			}
		}
		if m.opts.WriteAccounting == WriteAll {
			e.writeAccess += m.writeLocal[a] * float64(e.replicas[a])
		}
		if tt := m.transferTotal[a]; tt != 0 {
			g := tt * float64(e.replicas[a])
			e.transfer += g
			e.transferGross += g
		}
	}

	// WriteRelevant per-access counters and A_W.
	if m.opts.WriteAccounting == WriteRelevant {
		acc := 0
		for _, q := range m.queries {
			if !q.write {
				continue
			}
			for _, qa := range q.accesses {
				for s := 0; s < S; s++ {
					idx := acc*S + s
					e.alphaCnt[idx] = 0
					e.betaSum[idx] = 0
					for _, a := range qa.attrs {
						if p.AttrSites[a][s] {
							e.alphaCnt[idx]++
						}
					}
					for _, a := range m.tableAttrs[qa.table] {
						if p.AttrSites[a][s] {
							e.betaSum[idx] += float64(m.attrs[a].Width) * q.freq * qa.rows
						}
					}
					if e.alphaCnt[idx] > 0 {
						e.writeAccess += e.betaSum[idx]
					}
				}
				acc++
			}
		}
	}

	// Appendix A latency counters.
	if m.opts.LatencyPenalty > 0 {
		for q := range m.writeQFreq {
			st := p.TxnSite[m.writeQTxn[q]]
			total, own := int32(0), int32(0)
			for _, ar := range m.writeQAlpha[q] {
				total += ar.mult * e.replicas[ar.attr]
				if p.AttrSites[ar.attr][st] {
					own += ar.mult
				}
			}
			e.qTotal[q] = total
			e.qRemote[q] = total - own
			if e.qRemote[q] > 0 {
				e.latencyUnits += m.writeQFreq[q]
			}
		}
	}
}

// Model returns the model the evaluator scores against.
func (e *Evaluator) Model() *Model { return e.m }

// Partitioning returns the evaluator's live working partitioning. It is owned
// by the evaluator: treat it as read-only and edit through the Apply methods.
func (e *Evaluator) Partitioning() *Partitioning { return e.p }

// Pending returns the number of moves applied since the last Commit (the
// number Undo would revert). No-op moves count.
func (e *Evaluator) Pending() int { return len(e.journal) }

// checkSite panics on an out-of-range site index (an invalid site would
// silently corrupt the accumulators otherwise).
func (e *Evaluator) checkSite(s int) {
	if s < 0 || s >= e.p.Sites {
		panic(fmt.Sprintf("core: move targets invalid site %d of %d", s, e.p.Sites))
	}
}

// ApplyMoveTxn relocates transaction t to primary site s (the x part of a
// solution) and returns the resulting change of the balanced objective (6),
// the value local-search solvers feed into their Metropolis test. Moving a
// transaction to its current site is a recorded no-op. Like every move, it
// is journalled: revert it, with the rest of the uncommitted moves, with Undo
// or accept it with Commit.
//
//vpart:noalloc
func (e *Evaluator) ApplyMoveTxn(t, s int) float64 {
	e.checkSite(s)
	old := e.p.TxnSite[t]
	rec := undoRec{
		kind: mkMoveTxn, x: int32(t), site: int32(s), prevSite: int32(old),
		readAccess: e.readAccess, writeAccess: e.writeAccess,
		transfer: e.transfer, transferGross: e.transferGross,
		latencyUnits: e.latencyUnits,
		work0:        e.siteWork[s], work1: e.siteWork[old],
		betaMark: int32(len(e.betaLog)),
	}
	if s == old {
		rec.noop = true
		//vpartlint:allow noalloc journal capacity amortizes to the batch high-water mark; Commit/Undo reslice to [:0]
		e.journal = append(e.journal, rec)
		return 0
	}
	b0 := e.startRaw()
	e.moveTxn(t, s)
	//vpartlint:allow noalloc journal capacity amortizes to the batch high-water mark; Commit/Undo reslice to [:0]
	e.journal = append(e.journal, rec)
	return e.endRaw() - b0
}

// ApplyAddReplica stores attribute a on site s (extends the y part) and
// returns the change of the balanced objective. Adding a replica that already
// exists is a recorded no-op.
//
//vpart:noalloc
func (e *Evaluator) ApplyAddReplica(a, s int) float64 {
	e.checkSite(s)
	rec := undoRec{
		kind: mkAddReplica, x: int32(a), site: int32(s),
		readAccess: e.readAccess, writeAccess: e.writeAccess,
		transfer: e.transfer, transferGross: e.transferGross,
		latencyUnits: e.latencyUnits,
		work0:        e.siteWork[s],
		betaMark:     int32(len(e.betaLog)),
	}
	if e.p.AttrSites[a][s] {
		rec.noop = true
		//vpartlint:allow noalloc journal capacity amortizes to the batch high-water mark; Commit/Undo reslice to [:0]
		e.journal = append(e.journal, rec)
		return 0
	}
	b0 := e.startRaw()
	e.flipReplica(a, s, true)
	//vpartlint:allow noalloc journal capacity amortizes to the batch high-water mark; Commit/Undo reslice to [:0]
	e.journal = append(e.journal, rec)
	return e.endRaw() - b0
}

// ApplyDropReplica removes attribute a from site s and returns the change of
// the balanced objective. Dropping a replica that does not exist is a
// recorded no-op. Dropping the last replica of an attribute is allowed — the
// cost stays well defined — but yields an infeasible partitioning, exactly as
// Model.Evaluate would score it.
//
//vpart:noalloc
func (e *Evaluator) ApplyDropReplica(a, s int) float64 {
	e.checkSite(s)
	rec := undoRec{
		kind: mkDropReplica, x: int32(a), site: int32(s),
		readAccess: e.readAccess, writeAccess: e.writeAccess,
		transfer: e.transfer, transferGross: e.transferGross,
		latencyUnits: e.latencyUnits,
		work0:        e.siteWork[s],
		betaMark:     int32(len(e.betaLog)),
	}
	if !e.p.AttrSites[a][s] {
		rec.noop = true
		//vpartlint:allow noalloc journal capacity amortizes to the batch high-water mark; Commit/Undo reslice to [:0]
		e.journal = append(e.journal, rec)
		return 0
	}
	b0 := e.startRaw()
	e.flipReplica(a, s, false)
	//vpartlint:allow noalloc journal capacity amortizes to the batch high-water mark; Commit/Undo reslice to [:0]
	e.journal = append(e.journal, rec)
	return e.endRaw() - b0
}

// Undo reverts every move applied since the last Commit (or Restore), in
// reverse order. It never replays a move: every float accumulator is restored
// bitwise from the move's journal record (and the WriteRelevant per-access
// sums from betaLog), and only the placement bits and integer counters are
// inverted, so an apply-undo cycle is exact and rejecting a move costs O(1),
// plus its write-query counters under latency or WriteRelevant accounting.
//
//vpart:noalloc
func (e *Evaluator) Undo() {
	for i := len(e.journal) - 1; i >= 0; i-- {
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
	e.journal = e.journal[:0]
	e.betaLog = e.betaLog[:0]
	e.rawOK = false
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

// Commit accepts the uncommitted moves: the journal is cleared and they can
// no longer be undone.
//
//vpart:noalloc
func (e *Evaluator) Commit() {
	e.journal = e.journal[:0]
	e.betaLog = e.betaLog[:0]
}

// moveTxn relocates transaction t to site sNew, updating every accumulator.
//
//vpart:noalloc
func (e *Evaluator) moveTxn(t, sNew int) {
	m := e.m
	p := e.p
	sOld := p.TxnSite[t]
	for _, tc := range m.txnTerms[t] {
		row := p.AttrSites[tc.Attr]
		if row[sOld] {
			e.readAccess -= tc.C3
			e.siteWork[sOld] -= tc.C3
			e.transfer += tc.Xfer
		}
		if row[sNew] {
			e.readAccess += tc.C3
			e.siteWork[sNew] += tc.C3
			e.transfer -= tc.Xfer
		}
	}
	p.TxnSite[t] = sNew
	if m.opts.LatencyPenalty > 0 {
		for _, q := range m.txnWriteQ[t] {
			own := int32(0)
			for _, ar := range m.writeQAlpha[q] {
				if p.AttrSites[ar.attr][sNew] {
					own += ar.mult
				}
			}
			remote := e.qTotal[q] - own
			was, now := e.qRemote[q] > 0, remote > 0
			e.qRemote[q] = remote
			if was != now {
				if now {
					e.latencyUnits += m.writeQFreq[q]
				} else {
					e.latencyUnits -= m.writeQFreq[q]
				}
			}
		}
	}
}

// flipReplica stores (on) or removes (off) attribute a on site s, updating
// every accumulator. The current bit must differ from on.
//
//vpart:noalloc
func (e *Evaluator) flipReplica(a, s int, on bool) {
	m := e.m
	p := e.p
	sign := -1.0
	if on {
		sign = 1.0
		e.replicas[a]++
	} else {
		e.replicas[a]--
	}
	p.AttrSites[a][s] = on
	if e.siteBytes != nil {
		// Integer arithmetic inverts exactly, so Undo restores the byte
		// counters without journalling them.
		if on {
			e.siteBytes[s] += int64(m.attrs[a].Width)
		} else {
			e.siteBytes[s] -= int64(m.attrs[a].Width)
		}
	}

	if c4 := m.C4(a); c4 != 0 {
		e.siteWork[s] += sign * c4
	}
	switch m.opts.WriteAccounting {
	case WriteAll:
		if w := m.writeLocal[a]; w != 0 {
			e.writeAccess += sign * w
		}
	case WriteRelevant:
		S := p.Sites
		for _, ref := range m.attrWriteAcc[a] {
			idx := int(ref.access)*S + s
			before := 0.0
			if e.alphaCnt[idx] > 0 {
				before = e.betaSum[idx]
			}
			//vpartlint:allow noalloc betaLog capacity amortizes to the batch high-water mark; Commit/Undo reslice to [:0]
			e.betaLog = append(e.betaLog, betaRec{idx: int32(idx), prev: e.betaSum[idx]})
			e.betaSum[idx] += sign * ref.weight
			if ref.alpha {
				if on {
					e.alphaCnt[idx]++
				} else {
					e.alphaCnt[idx]--
				}
			}
			after := 0.0
			if e.alphaCnt[idx] > 0 {
				after = e.betaSum[idx]
			}
			e.writeAccess += after - before
		}
	}

	for _, at := range m.attrTerms[a] {
		if p.TxnSite[at.Txn] != s {
			continue
		}
		e.readAccess += sign * at.C3
		e.siteWork[s] += sign * at.C3
		e.transfer -= sign * at.Xfer
	}
	if tt := m.transferTotal[a]; tt != 0 {
		e.transfer += sign * tt
		e.transferGross += sign * tt
	}

	if m.opts.LatencyPenalty > 0 {
		for _, qr := range m.attrWriteQ[a] {
			q := qr.query
			if on {
				e.qTotal[q] += qr.mult
			} else {
				e.qTotal[q] -= qr.mult
			}
			if p.TxnSite[m.writeQTxn[q]] == s {
				continue
			}
			was := e.qRemote[q] > 0
			if on {
				e.qRemote[q] += qr.mult
			} else {
				e.qRemote[q] -= qr.mult
			}
			now := e.qRemote[q] > 0
			if was != now {
				if now {
					e.latencyUnits += m.writeQFreq[q]
				} else {
					e.latencyUnits -= m.writeQFreq[q]
				}
			}
		}
	}
}

// Constrained reports whether the evaluator's model carries compiled
// placement constraints (when false, every Allow method returns true).
func (e *Evaluator) Constrained() bool { return e.ct != nil }

// AllowMoveTxn reports whether relocating transaction t to site s respects
// the compiled constraints: the pin matches and no read attribute of t is
// forbidden on s. O(1) via the flattened allowed-site bitset. Capacity and
// replica-cap effects of the replica additions a relocation drags along are
// judged per addition with AllowAddReplica.
func (e *Evaluator) AllowMoveTxn(t, s int) bool {
	if e.ct == nil {
		return true
	}
	return e.ct.TxnAllowed[t*e.p.Sites+s]
}

// AllowAddReplica reports whether storing attribute a on site s respects the
// compiled constraints: s is not forbidden for a, no separation partner of a
// sits on s, a stays within its replica cap and s keeps its byte capacity.
// O(1) plus the (typically tiny) separation-partner scan. Colocation is a
// batch property — callers extending a colocated attribute must extend the
// whole group (see ConstraintSet.ColocGroupMembers).
func (e *Evaluator) AllowAddReplica(a, s int) bool {
	if e.ct == nil {
		return true
	}
	S := e.p.Sites
	if e.p.AttrSites[a][s] {
		return true // recorded no-op
	}
	if e.ct.AttrForbidden[a*S+s] {
		return false
	}
	if e.replicas[a]+1 > e.cs.attrMax[a] {
		return false
	}
	if e.ct.HasCap {
		if cap := e.ct.SiteCap[s]; cap >= 0 && e.siteBytes[s]+int64(e.m.attrs[a].Width) > cap {
			return false
		}
	}
	for _, b := range e.cs.sepPartners[a] {
		if e.p.AttrSites[b][s] {
			return false
		}
	}
	return true
}

// AllowDropReplica reports whether removing attribute a from site s respects
// the compiled constraints: s is not a required site of a. O(1). Dropping
// below one replica stays the caller's concern, exactly as with
// ApplyDropReplica.
func (e *Evaluator) AllowDropReplica(a, s int) bool {
	if e.ct == nil {
		return true
	}
	return !e.ct.AttrRequired[a*e.p.Sites+s]
}

// SiteHeadroom returns the remaining byte capacity of site s, or -1 when the
// site is uncapped (or the model unconstrained).
func (e *Evaluator) SiteHeadroom(s int) int64 {
	if e.ct == nil || !e.ct.HasCap {
		return -1
	}
	if cap := e.ct.SiteCap[s]; cap >= 0 {
		return cap - e.siteBytes[s]
	}
	return -1
}

// Replicas returns the cached replica count of attribute a.
func (e *Evaluator) Replicas(a int) int { return int(e.replicas[a]) }

// balancedRaw computes the balanced objective (6) from the accumulators with
// the raw (unclamped) transfer term. Deltas of consecutive calls are exact
// regardless of the clamp, which only matters at B ≈ 0.
//
//vpart:noalloc
func (e *Evaluator) balancedRaw() float64 {
	mw := 0.0
	for _, w := range e.siteWork {
		if w > mw {
			mw = w
		}
	}
	m := e.m
	obj := e.readAccess + e.writeAccess + m.opts.Penalty*e.transfer +
		m.opts.LatencyPenalty*e.latencyUnits
	return m.opts.Lambda*obj + (1-m.opts.Lambda)*mw
}

// startRaw returns balancedRaw of the state a move starts from, computed
// only when the last move did not leave it.
//
//vpart:noalloc
func (e *Evaluator) startRaw() float64 {
	if !e.rawOK {
		e.raw, e.rawOK = e.balancedRaw(), true
	}
	return e.raw
}

// endRaw returns balancedRaw of the state a move ended on and keeps it as
// the next move's start.
//
//vpart:noalloc
func (e *Evaluator) endRaw() float64 {
	e.raw, e.rawOK = e.balancedRaw(), true
	return e.raw
}

// Balanced returns the balanced objective (6) of the current state, equal to
// Cost().Balanced but without allocating. O(sites).
//
//vpart:noalloc
func (e *Evaluator) Balanced() float64 {
	mw := 0.0
	for _, w := range e.siteWork {
		if w > mw {
			mw = w
		}
	}
	m := e.m
	obj := e.readAccess + e.writeAccess +
		m.opts.Penalty*clampTransfer(e.transfer, e.transferGross) +
		m.opts.LatencyPenalty*e.latencyUnits
	return m.opts.Lambda*obj + (1-m.opts.Lambda)*mw
}

// Cost assembles the full cost breakdown of the current state from the
// accumulators. O(sites) — this is cheap enough to call per iteration.
func (e *Evaluator) Cost() Cost {
	m := e.m
	c := Cost{
		ReadAccess:  e.readAccess,
		WriteAccess: e.writeAccess,
		Transfer:    clampTransfer(e.transfer, e.transferGross),
		SiteWork:    append([]float64(nil), e.siteWork...),
	}
	for _, w := range c.SiteWork {
		if w > c.MaxWork {
			c.MaxWork = w
		}
	}
	if m.opts.LatencyPenalty > 0 {
		c.LatencyUnits = e.latencyUnits
		c.Latency = m.opts.LatencyPenalty * c.LatencyUnits
	}
	c.Objective = c.ReadAccess + c.WriteAccess + m.opts.Penalty*c.Transfer + c.Latency
	c.Balanced = m.opts.Lambda*c.Objective + (1-m.opts.Lambda)*c.MaxWork
	return c
}

// EvalSnapshot is a saved Evaluator state used for best-incumbent tracking.
// Snapshots are only valid for the evaluator (or an identically shaped one
// over the same model) that produced them.
type EvalSnapshot struct {
	sites    int
	txnSite  []int
	attrBits []bool // AttrSites flattened attr-major
	replicas []int32

	readAccess, writeAccess, transfer, transferGross, latencyUnits float64

	siteWork  []float64
	qTotal    []int32
	qRemote   []int32
	alphaCnt  []int32
	betaSum   []float64
	siteBytes []int64
}

// Snapshot captures the complete current state (including uncommitted moves)
// into a fresh snapshot. O(attrs·sites).
func (e *Evaluator) Snapshot() *EvalSnapshot {
	s := &EvalSnapshot{}
	e.SnapshotTo(s)
	return s
}

// SnapshotTo captures the current state into snap, reusing its buffers — the
// allocation-free form for hot loops that keep one best-incumbent snapshot.
func (e *Evaluator) SnapshotTo(snap *EvalSnapshot) {
	S := e.p.Sites
	snap.sites = S
	snap.txnSite = append(snap.txnSite[:0], e.p.TxnSite...)
	snap.attrBits = snap.attrBits[:0]
	for _, row := range e.p.AttrSites {
		snap.attrBits = append(snap.attrBits, row...)
	}
	snap.replicas = append(snap.replicas[:0], e.replicas...)
	snap.readAccess = e.readAccess
	snap.writeAccess = e.writeAccess
	snap.transfer = e.transfer
	snap.transferGross = e.transferGross
	snap.latencyUnits = e.latencyUnits
	snap.siteWork = append(snap.siteWork[:0], e.siteWork...)
	snap.qTotal = append(snap.qTotal[:0], e.qTotal...)
	snap.qRemote = append(snap.qRemote[:0], e.qRemote...)
	snap.alphaCnt = append(snap.alphaCnt[:0], e.alphaCnt...)
	snap.betaSum = append(snap.betaSum[:0], e.betaSum...)
	snap.siteBytes = append(snap.siteBytes[:0], e.siteBytes...)
}

// Restore reinstates a snapshot bitwise. Any uncommitted moves are discarded
// (the journal is cleared — moves applied before the Restore can no longer be
// undone).
func (e *Evaluator) Restore(snap *EvalSnapshot) {
	if snap.sites != e.p.Sites || len(snap.txnSite) != len(e.p.TxnSite) ||
		len(snap.attrBits) != len(e.p.AttrSites)*e.p.Sites {
		panic("core: Restore called with a snapshot from a differently shaped evaluator")
	}
	copy(e.p.TxnSite, snap.txnSite)
	for a, row := range e.p.AttrSites {
		copy(row, snap.attrBits[a*snap.sites:(a+1)*snap.sites])
	}
	copy(e.replicas, snap.replicas)
	e.readAccess = snap.readAccess
	e.writeAccess = snap.writeAccess
	e.transfer = snap.transfer
	e.transferGross = snap.transferGross
	e.latencyUnits = snap.latencyUnits
	copy(e.siteWork, snap.siteWork)
	copy(e.qTotal, snap.qTotal)
	copy(e.qRemote, snap.qRemote)
	copy(e.alphaCnt, snap.alphaCnt)
	copy(e.betaSum, snap.betaSum)
	copy(e.siteBytes, snap.siteBytes)
	e.journal = e.journal[:0]
	e.betaLog = e.betaLog[:0]
	e.rawOK = false
}
