package core

import (
	"context"
	"math"
)

// polishTol is the relative gain a move must make for the polish to commit
// it: a move lowers the balanced objective by more than polishTol times the
// current value, so float noise never commits a move or keeps a sweep going.
const polishTol = 1e-9

// Polish moves the layout p of model m to a local optimum of the balanced
// objective (6): a layout where no single move of the Neighbourhood lowers
// the cost by more than 1e-9 relative. It sweeps the moves in index order —
// for each unit representative and site, a drop; then for each transaction
// and site, a relocation — commits every move that lowers the cost as soon
// as it is priced (first improvement) and sweeps again until a sweep commits
// nothing. Each move is priced with the Evaluator's typed apply and undone
// unless it is committed, so a sweep that finds nothing leaves the evaluator
// as it found it. Moves stay inside the model's placement constraints, so a
// feasible p stays feasible.
//
// Adding a replica never lowers (6): with the non-negative coefficients and
// weights NewModel admits, it raises or keeps the read access, the writes,
// the transfer (Σ_t Xfer(a,t) = TransferTotal(a), so the writers on the new
// site save at most what the replica costs), the latency and every site's
// work. Polish therefore prices no AddUnit move, and it prices the replicas
// a relocation drags along only when the relocation still pays with a lower
// bound of their cost added (dragFloor), so its result is the one a sweep
// pricing every move in full would reach.
//
// Polish returns p itself and 0 when it commits no move, and otherwise a new
// layout and the number of moves committed; p is never mutated. It does
// nothing when disjoint is set (a relocation replicates) or on one site.
// The context is consulted between sweeps and every 64 elements within one;
// once it is done, Polish returns the feasible layout it holds.
func Polish(ctx context.Context, m *Model, p *Partitioning, disjoint bool) (*Partitioning, int, error) {
	if disjoint || p.Sites < 2 {
		return p, 0, nil
	}
	ev, err := NewEvaluator(m, p)
	if err != nil {
		return nil, 0, err
	}
	nb := NewNeighbourhood(m)
	total := 0
	for ctx.Err() == nil {
		n := nb.sweep(ctx, ev)
		total += n
		if n == 0 {
			break
		}
	}
	if total == 0 {
		return p, 0, nil
	}
	return ev.Partitioning().Clone(), total, nil
}

// sweep offers every drop and relocation of the neighbourhood once, in
// index order, and commits each that lowers the balanced objective by more
// than polishTol relative. It returns the number of moves committed. It
// stops early, with every committed move kept, once ctx is done.
func (n *Neighbourhood) sweep(ctx context.Context, ev *Evaluator) int {
	p := ev.Partitioning()
	S := p.Sites
	committed := 0
	limit := -polishTol * math.Abs(ev.Balanced())
	settle := func(delta float64) {
		if delta < limit {
			ev.Commit()
			committed++
			limit = -polishTol * math.Abs(ev.Balanced())
			return
		}
		ev.Undo()
	}
	for a := range n.units {
		if a&63 == 63 && ctx.Err() != nil {
			return committed
		}
		for s := 0; s < S; s++ {
			if mv := (Move{Kind: DropUnit, X: a, Site: s}); n.Admissible(ev, mv) {
				settle(n.Apply(ev, mv))
			}
		}
	}
	for t := range n.drags {
		if t&63 == 63 && ctx.Err() != nil {
			return committed
		}
		for s := 0; s < S; s++ {
			if !n.Admissible(ev, Move{Kind: MoveTxn, X: t, Site: s}) {
				continue
			}
			// The replicas the relocation drags along add at least
			// dragFloor, so a relocation that does not pay with that added
			// is undone before any of them is priced.
			delta := ev.ApplyMoveTxn(t, s)
			if delta+n.dragFloor(ev, t, s) >= limit {
				ev.Undo()
				continue
			}
			settle(delta + n.addMissing(ev, n.drags[t], s))
		}
	}
	return committed
}

// dragFloor returns a lower bound of the change of (6) that the replicas a
// relocation of transaction t to site s drags along make, once t is on s.
// Each read attribute b that s lacks adds at least t's own read of it,
// λ·c3(b,t), and under WriteAll its local writes, λ·writeLocal(b); no term of
// an addition can fall (see Polish), and colocation partners add more.
func (n *Neighbourhood) dragFloor(ev *Evaluator, t, s int) float64 {
	m, p := n.m, ev.p
	terms := m.txnTerms[t]
	floor, i := 0.0, 0
	// Both lists ascend by attribute, so one merge walk finds every c3.
	for _, b := range m.txnReadAttrs[t] {
		if p.AttrSites[b][s] {
			continue
		}
		for i < len(terms) && terms[i].Attr < b {
			i++
		}
		if i < len(terms) && terms[i].Attr == b {
			floor += terms[i].C3
		}
		if m.opts.WriteAccounting == WriteAll {
			floor += m.writeLocal[b]
		}
	}
	return m.opts.Lambda * floor
}
