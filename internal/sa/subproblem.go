package sa

import (
	"context"
	"slices"
	"sort"
	"time"

	"vpart/internal/core"
)

// subproblems implements the "findSolution(fix)" step of Algorithm 1: greedy
// optimisation of y for a fixed x and of x for a fixed y, both with respect
// to the balanced objective (6).

// solver bundles the model and derived data reused across iterations.
type solver struct {
	m     *core.Model
	sites int
	opts  Options

	// Disjoint mode only (nil otherwise): readersOf[a] lists the
	// transactions that read attribute a (ϕ); components groups transactions
	// that transitively share read attributes, which must co-locate; and
	// compAttrs[ci] lists the attributes read by component ci's members,
	// which relocate together with the component.
	readersOf  [][]int
	components [][]int
	compAttrs  [][]int

	// Placement constraints: the compiled set and its site-count-flattened
	// tables, both nil for an unconstrained model — the empty set, under
	// which every placement is allowed. Every neighbourhood move and greedy
	// placement consults them only when they are present, so the search
	// walks the feasible region instead of repairing after the fact.
	cs *core.ConstraintSet
	ct *core.ConstraintTables

	// nb holds the units (an attribute's colocation group, or just the
	// attribute) and the replicas each transaction relocation drags along,
	// and admits moves under the constraints exactly as the polish does.
	nb *core.Neighbourhood

	// attrOrder lists every unit representative by decreasing c4+c2 and
	// txnOrder every transaction by decreasing Σ_a c3(a,t), ties by index.
	// Both depend on the model alone; the greedy passes filter them instead
	// of sorting per pass. Each comparator is a strict total order, so a
	// filtered order equals the sorted subset.
	attrOrder, txnOrder []int

	// yFromX and xFromY are intensify's findSolution targets, one per pass
	// kind, and each is that kind's one-entry memo (see recall).
	yFromX, xFromY memoPass

	// Scratch buffers reused across iterations so the steady-state inner loop
	// does not allocate.
	missing []int     // perturb, randomX: candidate sites
	work    []float64 // greedy passes: running site work
	order   []int     // greedy passes: processing order
	bytes   []int64   // greedy passes: running site bytes (constrained)

	// attrCost/attrLoad hold every attribute's cost and load per site as the
	// running greedy pass priced them, row a at [a·sites, (a+1)·sites)
	// (attrSums); unitCost/unitLoad the sums over a colocation group's
	// members (unitSums, constrained only).
	attrCost, attrLoad []float64
	unitCost, unitLoad []float64

	// ctx and deadline, when set, are the run's cancellation facility. The
	// greedy passes consult them through stopped() inside their per-element
	// loops and switch to a rush path that still produces a covered,
	// single-sited assignment, so a TimeLimit binds mid-pass on large
	// instances instead of only between inner iterations.
	ctx      context.Context
	deadline time.Time
	stopTick uint

	// tainted is set by a pass whose result used more than the vector it
	// holds fixed: one the cancellation probe switched to its rush path, or a
	// y-pass that left a transaction (in disjoint mode a component) on its
	// current site because no site was feasible. intensify does not record
	// such a pass in its memo.
	tainted bool
}

// memoPass is intensify's target for one kind of findSolution pass. Both
// vectors of out survive until the next pass of that kind: the one the pass
// held fixed and the one it rebuilt from it. A greedy pass depends on its
// fixed vector alone, so while reusable is set, a pass on an equal fixed
// vector would rebuild the same vector again (see recall).
type memoPass struct {
	out      *core.Partitioning
	reusable bool
	// feasible is scratchSatisfiesConstraints' verdict on out after a y
	// rebuild under constraints, and true otherwise.
	feasible bool
}

// stopped rations the cancellation probe: the wall-clock (or context) read
// costs far more than one greedy placement, so only every 64th call actually
// consults it. A probe that fires taints the running pass.
//
//vpart:noalloc
func (s *solver) stopped() bool {
	if s.ctx == nil && s.deadline.IsZero() {
		return false
	}
	s.stopTick++
	if s.stopTick&63 != 0 {
		return false
	}
	if (s.ctx != nil && s.ctx.Err() != nil) || pastDeadline(s.deadline) {
		s.tainted = true
		return true
	}
	return false
}

// recall returns the memo of the pass kind that holds x fixed (fixX) or y
// fixed when its last pass was reusable and started from p's current fixed
// vector, and nil when that pass has to run again.
//
//vpart:noalloc
func (s *solver) recall(p *core.Partitioning, fixX bool) *memoPass {
	if fixX {
		if s.yFromX.reusable && slices.Equal(s.yFromX.out.TxnSite, p.TxnSite) {
			return &s.yFromX
		}
		return nil
	}
	if !s.xFromY.reusable {
		return nil
	}
	for a, row := range p.AttrSites {
		if !slices.Equal(s.xFromY.out.AttrSites[a], row) {
			return nil
		}
	}
	return &s.xFromY
}

func newSolver(m *core.Model, opts Options) *solver {
	s := &solver{m: m, sites: opts.Sites, opts: opts}
	nA, nT := m.NumAttrs(), m.NumTxns()
	s.yFromX.out = core.NewPartitioning(nT, nA, s.sites)
	s.xFromY.out = core.NewPartitioning(nT, nA, s.sites)
	s.work = make([]float64, s.sites)
	s.attrCost = make([]float64, nA*s.sites)
	s.attrLoad = make([]float64, nA*s.sites)
	if cs := m.Constraints(); cs != nil {
		s.cs = cs
		s.ct = cs.Tables(m, s.sites)
		s.bytes = make([]int64, s.sites)
		s.unitCost = make([]float64, s.sites)
		s.unitLoad = make([]float64, s.sites)
	}

	s.nb = core.NewNeighbourhood(m)

	attrWeight := make([]float64, nA)
	for a := range attrWeight {
		attrWeight[a] = m.C4(a) + m.C2(a)
	}
	// A colocation group places through its representative alone.
	order := byDecreasingWeight(attrWeight)
	s.attrOrder = order[:0]
	for _, a := range order {
		if int(s.nb.Unit(a)[0]) == a {
			s.attrOrder = append(s.attrOrder, a)
		}
	}
	txnWeight := make([]float64, nT)
	for t := range txnWeight {
		for _, tc := range m.TxnTerms(t) {
			txnWeight[t] += tc.C3
		}
	}
	s.txnOrder = byDecreasingWeight(txnWeight)
	if opts.Disjoint {
		s.buildComponents()
	}
	return s
}

// buildComponents fills the disjoint-mode tables readersOf, components and
// compAttrs.
func (s *solver) buildComponents() {
	m := s.m
	nA, nT := m.NumAttrs(), m.NumTxns()
	s.readersOf = make([][]int, nA)
	for t := 0; t < nT; t++ {
		for _, a := range m.TxnReadAttrs(t) {
			s.readersOf[a] = append(s.readersOf[a], t)
		}
	}
	// Union-find over transactions.
	parent := make([]int, nT)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	for _, readers := range s.readersOf {
		for i := 1; i < len(readers); i++ {
			parent[find(readers[i])] = find(readers[0])
		}
	}
	compOf := make([]int, nT)
	index := map[int]int{}
	for t := 0; t < nT; t++ {
		root := find(t)
		ci, ok := index[root]
		if !ok {
			ci = len(s.components)
			index[root] = ci
			s.components = append(s.components, nil)
		}
		compOf[t] = ci
		s.components[ci] = append(s.components[ci], t)
	}
	s.compAttrs = make([][]int, len(s.components))
	for a, readers := range s.readersOf {
		if len(readers) > 0 {
			ci := compOf[readers[0]]
			s.compAttrs[ci] = append(s.compAttrs[ci], a)
		}
	}
}

// byDecreasingWeight returns the indices of w by decreasing weight, ties by
// index.
func byDecreasingWeight(w []float64) []int {
	order := make([]int, len(w))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if w[a] != w[b] {
			return w[a] > w[b]
		}
		return a < b
	})
	return order
}

// attrSums prices attribute a on every site under p's transaction
// assignment — the marginal objective-(4) cost C2(a) + Σ_{t on st} C1(a,t)
// and the load C4(a) + Σ_{t on st} C3(a,t) of storing it on site st — into
// its rows of the pass's price table, and returns them. It walks a's
// non-zero terms once, in ascending transaction order, the order a scan of
// each site's transactions adds them. A pair without a term would add +0.0,
// which leaves a sum unchanged unless it is −0.0, and neither C2(a), C4(a)
// nor any sum grown from them is; c1 is computed from the term's C3 and Xfer
// exactly as the model computes C1. The sums are therefore bit-identical to
// that scan.
//
//vpart:noalloc
func (s *solver) attrSums(p *core.Partitioning, a int) (cost, load []float64) {
	m := s.m
	cost, load = s.priced(a)
	c2, c4 := m.C2(a), m.C4(a)
	for st := range cost {
		cost[st], load[st] = c2, c4
	}
	pen := m.Options().Penalty
	for _, at := range m.AttrTerms(a) {
		st := p.TxnSite[at.Txn]
		cost[st] += at.C3 - pen*at.Xfer
		load[st] += at.C3
	}
	return cost, load
}

// priced returns attribute a's rows of the price table as attrSums last
// filled them.
//
//vpart:noalloc
func (s *solver) priced(a int) (cost, load []float64) {
	i := a * s.sites
	return s.attrCost[i : i+s.sites : i+s.sites], s.attrLoad[i : i+s.sites : i+s.sites]
}

// unitSums returns the priced sums of a unit's members: a single
// attribute's own rows, and for a colocation group each site's sums started
// from zero with the members added in order. The returned slices are valid
// until the next pass (or, for a group, the next call).
//
//vpart:noalloc
func (s *solver) unitSums(members []int32) (cost, load []float64) {
	if len(members) == 1 {
		return s.priced(int(members[0]))
	}
	clear(s.unitCost)
	clear(s.unitLoad)
	for _, b := range members {
		c, l := s.priced(int(b))
		for st := range s.unitCost {
			s.unitCost[st] += c[st]
			s.unitLoad[st] += l[st]
		}
	}
	return s.unitCost, s.unitLoad
}

// resetWork zeroes and returns the reusable per-site work accumulator.
func (s *solver) resetWork() []float64 {
	for i := range s.work {
		s.work[i] = 0
	}
	return s.work
}

// lambda returns λ of the model.
func (s *solver) lambda() float64 { return s.m.Options().Lambda }

// solveYGivenX computes an attribute assignment for the fixed transaction
// assignment, writing it into p.AttrSites. It marks the hard placements —
// every read attribute on its transaction's site (single-sitedness), the
// required sites and the colocation closure of both — covers every unplaced
// unit (a colocation group, or a single attribute) on one site and adds
// beneficial extra replicas (negative marginal cost), balancing load
// greedily. Under placement constraints every further placement respects
// forbidden sites, separation partners, replica caps and site capacities.
// When the hard placements alone overrun a capacity, or no site admits a
// unit, the unit is still stored and the caller's feasibility check
// (Partitioning.Validate) reports the violation.
func (s *solver) solveYGivenX(p *core.Partitioning) {
	m := s.m
	nA := m.NumAttrs()
	lam := s.lambda()
	cs := s.cs

	for a := 0; a < nA; a++ {
		clear(p.AttrSites[a])
	}
	for t := 0; t < m.NumTxns(); t++ {
		st := p.TxnSite[t]
		for _, a := range m.TxnReadAttrs(t) {
			p.AttrSites[a][st] = true
		}
	}
	if cs != nil {
		for a := 0; a < nA; a++ {
			for _, st := range cs.Required(a) {
				p.AttrSites[a][st] = true
			}
		}
		for g := 0; g < cs.NumColocGroups(); g++ {
			members := cs.ColocGroupMembers(g)
			for st := 0; st < s.sites; st++ {
				for _, a := range members {
					if p.AttrSites[a][st] {
						for _, b := range members {
							p.AttrSites[b][st] = true
						}
						break
					}
				}
			}
		}
	}

	// Price every attribute once, and sum the site work (and stored bytes)
	// of the hard placements in attribute order.
	work := s.resetWork()
	bytes := s.resetBytes()
	for a := 0; a < nA; a++ {
		_, load := s.attrSums(p, a)
		for st, on := range p.AttrSites[a] {
			if !on {
				continue
			}
			work[st] += load[st]
			if bytes != nil {
				bytes[st] += int64(m.Attr(a).Width)
			}
		}
	}
	cur := 0.0
	for _, w := range work {
		if w > cur {
			cur = w
		}
	}

	// Cover the unplaced units in decreasing weight order (LPT-style), so the
	// load balancing term is handled sensibly.
	order := s.order[:0]
	for _, a := range s.attrOrder {
		if p.Replicas(a) == 0 {
			order = append(order, a)
		}
	}
	s.order = order
	// rush: the cancellation probe fired mid-pass. The remaining units still
	// need a site (the pass cleared every row above), so they take their
	// first allowed site unscored — site 0 without constraints — through the
	// fallback a unit no site admits takes, and the optional extra-replica
	// sweep is skipped entirely.
	rush := false
	for _, a := range order {
		if !rush && s.stopped() {
			rush = true
		}
		members := s.nb.Unit(a)
		cost, load := s.unitSums(members)
		// The best site minimises the balanced score, ties to the lowest
		// index. Under constraints only sites every member may be stored on
		// compete, with capacity headroom respected as long as any of them
		// has room.
		best, bestScore, found := 0, 0.0, false
		for pass := 0; pass < 2 && !found && !rush; pass++ {
			for st := 0; st < s.sites; st++ {
				if cs != nil && !s.unitAllowedAt(p, members, st, pass == 0) {
					continue
				}
				delta := work[st] + load[st] - cur
				if delta < 0 {
					delta = 0
				}
				score := lam*cost[st] + (1-lam)*delta
				if !found || score < bestScore {
					best, bestScore, found = st, score, true
				}
			}
		}
		if !found {
			best = max(cs.PlaceAllowedSite(m, p, a, nil), 0)
		}
		s.placeUnit(p, members, best)
		if work[best] > cur {
			cur = work[best]
		}
	}

	// Beneficial extra replicas: a replica whose combined cost and load
	// effect is negative always pays off. Skipped in disjoint mode.
	if s.opts.Disjoint || rush {
		return
	}
	for a := 0; a < nA; a++ {
		if s.stopped() {
			break
		}
		members := s.nb.Unit(a)
		if int(members[0]) != a {
			continue // a colocation group extends through its representative
		}
		cost, load := s.unitSums(members)
		for st := 0; st < s.sites; st++ {
			if p.AttrSites[a][st] {
				continue
			}
			if cs != nil {
				if p.Replicas(a) >= cs.MaxReplicasOf(a) {
					break
				}
				if !s.unitAllowedAt(p, members, st, true) {
					continue
				}
			}
			delta := work[st] + load[st] - cur
			if delta < 0 {
				delta = 0
			}
			if lam*cost[st]+(1-lam)*delta < 0 {
				s.placeUnit(p, members, st)
				if work[st] > cur {
					cur = work[st]
				}
			}
		}
	}
}

// placeUnit stores every member of a unit on site st, adding each member's
// priced load there to the site's work, and its width to the stored bytes,
// one member at a time. The members of a unit share their sites, so none is
// on st yet.
func (s *solver) placeUnit(p *core.Partitioning, members []int32, st int) {
	for _, b := range members {
		p.AttrSites[b][st] = true
		_, l := s.priced(int(b))
		s.work[st] += l[st]
		if s.bytes != nil {
			s.bytes[st] += int64(s.m.Attr(int(b)).Width)
		}
	}
}

// solveXGivenY re-assigns transactions to sites for a fixed attribute
// assignment. Only sites that hold all read attributes of a transaction are
// feasible. In disjoint mode whole components are assigned together.
func (s *solver) solveXGivenY(p *core.Partitioning) {
	m := s.m
	lam := s.lambda()

	// Base work per site from the write part (independent of x).
	work := s.resetWork()
	for a := 0; a < m.NumAttrs(); a++ {
		if c4 := m.C4(a); c4 != 0 {
			for st := 0; st < s.sites; st++ {
				if p.AttrSites[a][st] {
					work[st] += c4
				}
			}
		}
	}

	costOn := func(t, st int) (cost, load float64) {
		for _, tc := range m.TxnTerms(t) {
			if p.AttrSites[tc.Attr][st] {
				cost += tc.C1
				load += tc.C3
			}
		}
		return cost, load
	}
	feasible := func(t, st int) bool {
		if !s.txnSiteOK(t, st) {
			return false
		}
		for _, a := range m.TxnReadAttrs(t) {
			if !p.AttrSites[a][st] {
				return false
			}
		}
		return true
	}

	if s.opts.Disjoint {
		s.assignComponents(p, work)
		return
	}

	cur := 0.0
	for _, w := range work {
		if w > cur {
			cur = w
		}
	}
	// Transactions in decreasing read weight (s.txnOrder), so heavy ones are
	// placed while sites are still balanced.
	for _, t := range s.txnOrder {
		// Cancellation mid-pass: the remaining transactions simply keep their
		// current (feasible) sites.
		if s.stopped() {
			break
		}
		best := p.TxnSite[t]
		bestScore, bestLoad := 0.0, 0.0
		found := false
		for st := 0; st < s.sites; st++ {
			if !feasible(t, st) {
				continue
			}
			cost, load := costOn(t, st)
			delta := work[st] + load - cur
			if delta < 0 {
				delta = 0
			}
			score := lam*cost + (1-lam)*delta
			if !found || score < bestScore {
				best, bestScore, bestLoad, found = st, score, load, true
			}
		}
		// At least the previous site of t is feasible because y only ever
		// extends after it was built for the previous x; if not (fresh y),
		// fall back to the old site and let the caller repair. The result
		// then depends on x too, which taints the pass.
		if !found {
			_, bestLoad = costOn(t, best)
			s.tainted = true
		}
		p.TxnSite[t] = best
		work[best] += bestLoad
		if work[best] > cur {
			cur = work[best]
		}
	}
}

// assignComponents places whole components of transactions (disjoint mode).
func (s *solver) assignComponents(p *core.Partitioning, work []float64) {
	m := s.m
	lam := s.lambda()
	cur := 0.0
	for _, w := range work {
		if w > cur {
			cur = w
		}
	}
	for _, comp := range s.components {
		// Cancellation mid-pass: the remaining components keep their sites.
		if s.stopped() {
			break
		}
		// Feasible sites: those holding all read attributes of every member.
		best, bestScore, found := 0, 0.0, false
		for st := 0; st < s.sites; st++ {
			ok := true
			for _, t := range comp {
				for _, a := range m.TxnReadAttrs(t) {
					if !p.AttrSites[a][st] {
						ok = false
						break
					}
				}
				if !ok {
					break
				}
			}
			if !ok {
				continue
			}
			cost, load := 0.0, 0.0
			for _, t := range comp {
				for _, tc := range m.TxnTerms(t) {
					if p.AttrSites[tc.Attr][st] {
						cost += tc.C1
						load += tc.C3
					}
				}
			}
			delta := work[st] + load - cur
			if delta < 0 {
				delta = 0
			}
			score := lam*cost + (1-lam)*delta
			if !found || score < bestScore {
				best, bestScore, found = st, score, true
			}
		}
		if !found {
			best = p.TxnSite[comp[0]]
			s.tainted = true
		}
		for _, t := range comp {
			p.TxnSite[t] = best
		}
		for _, t := range comp {
			for _, tc := range m.TxnTerms(t) {
				if p.AttrSites[tc.Attr][best] {
					work[best] += tc.C3
				}
			}
		}
		if work[best] > cur {
			cur = work[best]
		}
	}
}

// --- placement-constraint support ------------------------------------------

// txnSiteOK reports whether transaction t may run on site st under the
// compiled constraints (O(1) via the flattened table; always without them).
func (s *solver) txnSiteOK(t, st int) bool {
	return s.ct == nil || s.ct.TxnAllowed[t*s.sites+st]
}

// attrForbiddenAt is the O(1) flattened lookup of a forbidden site.
func (s *solver) attrForbiddenAt(a, st int) bool {
	return s.ct.AttrForbidden[a*s.sites+st]
}

// sepConflict reports whether a separation partner of attribute a is stored
// on site st in p.
func (s *solver) sepConflict(p *core.Partitioning, a, st int) bool {
	for _, b := range s.cs.SeparatedFrom(a) {
		if p.AttrSites[b][st] {
			return true
		}
	}
	return false
}

// unitAllowedAt reports whether every member of a unit may be stored on site
// st of p (constrained models only): none is forbidden there or separated
// from an attribute stored there, and — when respectCap — the members' summed
// width fits st's remaining capacity.
func (s *solver) unitAllowedAt(p *core.Partitioning, members []int32, st int, respectCap bool) bool {
	var width int64
	for _, b := range members {
		if s.attrForbiddenAt(int(b), st) || s.sepConflict(p, int(b), st) {
			return false
		}
		width += int64(s.m.Attr(int(b)).Width)
	}
	if respectCap && s.ct.HasCap {
		if cap := s.ct.SiteCap[st]; cap >= 0 && s.bytes[st]+width > cap {
			return false
		}
	}
	return true
}

// resetBytes zeroes and returns the per-site byte accumulator (nil for an
// unconstrained model).
func (s *solver) resetBytes() []int64 {
	clear(s.bytes)
	return s.bytes
}

// scratchSatisfiesConstraints verifies the softer constraints — capacities,
// separations, replica caps — the constrained greedy pass may have had to
// relax on its fallback paths. Pins, forbids and colocation hold by
// construction. O(attrs·sites).
func (s *solver) scratchSatisfiesConstraints(p *core.Partitioning) bool {
	m := s.m
	nA := m.NumAttrs()
	if s.ct.HasCap {
		bytes := s.resetBytes()
		for a := 0; a < nA; a++ {
			w := int64(m.Attr(a).Width)
			for st := 0; st < s.sites; st++ {
				if p.AttrSites[a][st] {
					bytes[st] += w
				}
			}
		}
		for st := 0; st < s.sites; st++ {
			if cap := s.ct.SiteCap[st]; cap >= 0 && bytes[st] > cap {
				return false
			}
		}
	}
	for a := 0; a < nA; a++ {
		if max := s.cs.MaxReplicasOf(a); p.Replicas(a) > max {
			return false
		}
		for _, b := range s.cs.SeparatedFrom(a) {
			if int(b) < a {
				continue
			}
			for st := 0; st < s.sites; st++ {
				if p.AttrSites[a][st] && p.AttrSites[b][st] {
					return false
				}
			}
		}
	}
	return true
}

// solveYGivenXDisjoint assigns every attribute to exactly one site for a
// fixed transaction assignment. Attributes read by some transaction follow
// their readers (all readers share a site in disjoint-feasible assignments);
// unread attributes go to the cheapest site.
func (s *solver) solveYGivenXDisjoint(p *core.Partitioning) {
	m := s.m
	lam := s.lambda()
	nA := m.NumAttrs()
	for a := 0; a < nA; a++ {
		for st := 0; st < s.sites; st++ {
			p.AttrSites[a][st] = false
		}
	}
	work := s.resetWork()
	cur := 0.0
	place := func(a, st int, load float64) {
		p.AttrSites[a][st] = true
		work[st] += load
		if work[st] > cur {
			cur = work[st]
		}
	}
	unread := s.order[:0]
	for a := 0; a < nA; a++ {
		if len(s.readersOf[a]) > 0 {
			st := p.TxnSite[s.readersOf[a][0]]
			_, load := s.attrSums(p, a)
			place(a, st, load[st])
		} else {
			unread = append(unread, a)
		}
	}
	s.order = unread
	// rush: cancellation fired mid-pass — the remaining unread attributes are
	// dumped on site 0 unscored (they still need exactly one site each).
	rush := false
	for _, a := range unread {
		if !rush && s.stopped() {
			rush = true
		}
		cost, load := s.attrSums(p, a)
		if rush {
			place(a, 0, load[0])
			continue
		}
		best, bestScore := 0, 0.0
		for st := 0; st < s.sites; st++ {
			delta := work[st] + load[st] - cur
			if delta < 0 {
				delta = 0
			}
			score := lam*cost[st] + (1-lam)*delta
			if st == 0 || score < bestScore {
				best, bestScore = st, score
			}
		}
		place(a, best, load[best])
	}
}
