package core

// MoveKind names one of the three single moves of a Neighbourhood.
type MoveKind uint8

const (
	// DropUnit removes a unit's replicas from a site on which no
	// transaction reads any of its attributes, keeping at least one replica
	// of each.
	DropUnit MoveKind = iota
	// AddUnit stores a unit's attributes on a site that lacks them.
	AddUnit
	// MoveTxn relocates a transaction, adding at its new site the units of
	// its read attributes that the site lacks.
	MoveTxn
)

// Move is one single move of a Neighbourhood: X is the transaction of a
// MoveTxn, any member of the unit of an AddUnit, and the unit representative
// (the lowest attribute id of the unit) of a DropUnit; Site is the move's
// target site.
type Move struct {
	Kind MoveKind
	X    int
	Site int
}

// Neighbourhood holds the tables behind the single moves a local search
// makes on a layout of one model, and answers whether a move is admissible
// under the model's placement constraints. A unit is an attribute's
// colocation group, or the attribute alone: replicas are added and dropped a
// unit at a time, so a colocation holds after every move. The SA
// perturbation and the polish share it, so both admit exactly the same
// moves.
//
// A Neighbourhood is not safe for concurrent use.
type Neighbourhood struct {
	m  *Model
	cs *ConstraintSet

	// units[a] lists the attributes placed together with a, ascending, so
	// units[a][0] is the unit's representative. drags[t] lists the units of
	// transaction t's read attributes back to back, in read order: the
	// replicas a relocation of t drags along (a group two reads share
	// appears twice).
	units, drags [][]int32

	// readers[a] lists the transactions that read attribute a; built on the
	// first drop a caller asks about.
	readers [][]int32

	buf []int // canRelocate: pending additions of one relocation
}

// NewNeighbourhood builds the unit and drag tables of the model.
func NewNeighbourhood(m *Model) *Neighbourhood {
	nA, nT := m.NumAttrs(), m.NumTxns()
	cs := m.Constraints()
	n := &Neighbourhood{m: m, cs: cs, units: make([][]int32, nA)}
	self := make([]int32, nA)
	for a := range n.units {
		if g := cs.ColocGroupOf(a); g >= 0 {
			n.units[a] = cs.ColocGroupMembers(g)
		} else {
			self[a] = int32(a)
			n.units[a] = self[a : a+1 : a+1]
		}
	}
	size := 0
	for t := 0; t < nT; t++ {
		for _, a := range m.TxnReadAttrs(t) {
			size += len(n.units[a])
		}
	}
	flat := make([]int32, 0, size)
	n.drags = make([][]int32, nT)
	for t := range n.drags {
		start := len(flat)
		for _, a := range m.TxnReadAttrs(t) {
			flat = append(flat, n.units[a]...)
		}
		n.drags[t] = flat[start:len(flat):len(flat)]
	}
	return n
}

// Unit returns the attributes placed together with a, ascending. Do not
// modify.
//
//vpart:noalloc
func (n *Neighbourhood) Unit(a int) []int32 { return n.units[a] }

// canRelocate reports whether the constraints allow transaction t on site
// st and let the relocation legally drag along every missing read attribute
// and the colocation partners that must follow them: each addition admitted
// by Evaluator.AllowAddReplica, no separation among the pending additions
// themselves, and their combined widths within st's remaining capacity.
// The model must be constrained; without constraints every relocation can.
//
//vpart:noalloc
func (n *Neighbourhood) canRelocate(ev *Evaluator, t, st int) bool {
	if !ev.AllowMoveTxn(t, st) {
		return false
	}
	p := ev.Partitioning()
	var need int64
	n.buf = n.buf[:0]
	for _, b := range n.drags[t] {
		bi := int(b)
		if p.AttrSites[bi][st] {
			continue
		}
		if !ev.AllowAddReplica(bi, st) {
			return false
		}
		// The evaluator judges each addition against the live state, which
		// cannot see replicas this batch has not applied yet.
		for _, prev := range n.buf {
			if containsSorted(n.cs.SeparatedFrom(bi), int32(prev)) {
				return false
			}
		}
		//vpartlint:allow noalloc buf capacity amortizes to the longest drag list
		n.buf = append(n.buf, bi)
		need += int64(n.m.attrs[bi].Width)
	}
	// Colocation partners shared between two read attributes are counted
	// twice in need — a conservative over-estimate that can only reject, not
	// admit, a capacity-violating batch.
	headroom := ev.SiteHeadroom(st)
	return headroom < 0 || need <= headroom
}

// canExtendUnit reports whether the whole unit of attribute a, which is
// missing on site st, may gain a replica there: each addition admitted by
// Evaluator.AllowAddReplica and their summed width within st's remaining
// capacity. The model must be constrained; without constraints every unit
// may.
//
//vpart:noalloc
func (n *Neighbourhood) canExtendUnit(ev *Evaluator, a, st int) bool {
	p := ev.Partitioning()
	var need int64
	for _, b := range n.units[a] {
		bi := int(b)
		if p.AttrSites[bi][st] {
			continue
		}
		if !ev.AllowAddReplica(bi, st) {
			return false
		}
		need += int64(n.m.attrs[bi].Width)
	}
	headroom := ev.SiteHeadroom(st)
	return headroom < 0 || need <= headroom
}

// canShrinkUnit reports whether the unit of attribute a may drop its
// replicas on site st: each member is stored there and on another site, no
// transaction on st reads it, and Evaluator.AllowDropReplica admits the
// removal.
func (n *Neighbourhood) canShrinkUnit(ev *Evaluator, a, st int) bool {
	if n.readers == nil {
		n.buildReaders()
	}
	p := ev.Partitioning()
	for _, b := range n.units[a] {
		bi := int(b)
		if !p.AttrSites[bi][st] || ev.Replicas(bi) < 2 || !ev.AllowDropReplica(bi, st) {
			return false
		}
		for _, t := range n.readers[bi] {
			if p.TxnSite[t] == st {
				return false
			}
		}
	}
	return true
}

// buildReaders fills readers from the model's read sets.
func (n *Neighbourhood) buildReaders() {
	nA := n.m.NumAttrs()
	count := make([]int, nA+1)
	for t := 0; t < n.m.NumTxns(); t++ {
		for _, a := range n.m.TxnReadAttrs(t) {
			count[a+1]++
		}
	}
	for a := 0; a < nA; a++ {
		count[a+1] += count[a]
	}
	flat := make([]int32, count[nA])
	next := append([]int(nil), count[:nA]...)
	for t := 0; t < n.m.NumTxns(); t++ {
		for _, a := range n.m.TxnReadAttrs(t) {
			flat[next[a]] = int32(t)
			next[a]++
		}
	}
	n.readers = make([][]int32, nA)
	for a := range n.readers {
		n.readers[a] = flat[count[a]:count[a+1]:count[a+1]]
	}
}

// Admissible reports whether the move applies to the evaluator's layout and
// keeps it feasible: a MoveTxn changes the transaction's site, the site is
// allowed for it and every replica it drags along is admissible; an AddUnit
// extends the unit of X, which may name any member, to a site X lacks,
// within the constraints; a DropUnit removes a unit representative's
// replicas from a site on which each member has a replica, another one
// elsewhere and no reader, and where Evaluator.AllowDropReplica admits the
// removal. It is the one admission check of the SA perturbation and the
// polish.
func (n *Neighbourhood) Admissible(ev *Evaluator, mv Move) bool {
	switch mv.Kind {
	case MoveTxn:
		return n.canMoveTxn(ev, mv.X, mv.Site)
	case AddUnit:
		return n.canAddUnit(ev, mv.X, mv.Site)
	default:
		return int(n.units[mv.X][0]) == mv.X && n.canShrinkUnit(ev, mv.X, mv.Site)
	}
}

// AddSites resets dst and appends, ascending, every site st for which the
// AddUnit move of attribute a to st is admissible: the sites the unit may
// extend to. It returns the extended slice.
//
//vpart:noalloc
func (n *Neighbourhood) AddSites(ev *Evaluator, a int, dst []int) []int {
	dst = dst[:0]
	for st := range ev.Partitioning().AttrSites[a] {
		if n.canAddUnit(ev, a, st) {
			dst = append(dst, st)
		}
	}
	return dst
}

// canMoveTxn is Admissible for the MoveTxn of transaction t to site st.
//
//vpart:noalloc
func (n *Neighbourhood) canMoveTxn(ev *Evaluator, t, st int) bool {
	return ev.p.TxnSite[t] != st && (n.cs == nil || n.canRelocate(ev, t, st))
}

// canAddUnit is Admissible for the AddUnit of attribute a to site st.
//
//vpart:noalloc
func (n *Neighbourhood) canAddUnit(ev *Evaluator, a, st int) bool {
	return !ev.p.AttrSites[a][st] && (n.cs == nil || n.canExtendUnit(ev, a, st))
}

// Apply applies an admissible move to the evaluator as its typed sub-moves
// and returns the change of the balanced objective (6). An AddUnit may name
// any member of its unit. The caller decides the move's fate with
// Evaluator.Commit or Evaluator.Undo.
//
//vpart:noalloc
func (n *Neighbourhood) Apply(ev *Evaluator, mv Move) float64 {
	switch mv.Kind {
	case MoveTxn:
		delta := ev.ApplyMoveTxn(mv.X, mv.Site)
		return delta + n.addMissing(ev, n.drags[mv.X], mv.Site)
	case AddUnit:
		return n.addMissing(ev, n.units[mv.X], mv.Site)
	default:
		delta := 0.0
		for _, b := range n.units[mv.X] {
			delta += ev.ApplyDropReplica(int(b), mv.Site)
		}
		return delta
	}
}

// addMissing adds a replica on site s of every listed attribute s lacks and
// returns the summed change of the balanced objective.
//
//vpart:noalloc
func (n *Neighbourhood) addMissing(ev *Evaluator, attrs []int32, s int) float64 {
	p := ev.Partitioning()
	delta := 0.0
	for _, b := range attrs {
		if !p.AttrSites[b][s] {
			delta += ev.ApplyAddReplica(int(b), s)
		}
	}
	return delta
}
