package sa

// The reference for the greedy findSolution passes: the passes as they were
// before they walked each attribute's non-zero terms, scanning every site's
// transactions through the model's C1/C3 lookups and sorting their orders on
// every call. TestGreedyPassesMatchDenseReference requires the live passes to
// produce identical layouts.

import (
	"sort"

	"vpart/internal/core"
)

// denseFindSolution is findSolution over the reference passes.
func denseFindSolution(s *solver, p *core.Partitioning, fix string) {
	switch {
	case fix == "y":
		denseSolveXGivenY(s, p)
	case s.opts.Disjoint:
		denseSolveYGivenXDisjoint(s, p)
	default:
		denseSolveYGivenX(s, p)
	}
}

// denseTxnsBySite lists each site's transactions in ascending order.
func denseTxnsBySite(s *solver, p *core.Partitioning) [][]int {
	txnsOn := make([][]int, s.sites)
	for t, st := range p.TxnSite {
		txnsOn[st] = append(txnsOn[st], t)
	}
	return txnsOn
}

// denseSolveYGivenX computes an attribute assignment for the fixed transaction
// assignment, writing it into p.AttrSites. It respects single-sitedness
// (forced replicas), covers every attribute at least once, adds beneficial
// extra replicas (negative marginal cost) and balances load greedily.
func denseSolveYGivenX(s *solver, p *core.Partitioning) {
	if s.ct != nil {
		denseSolveYGivenXConstrained(s, p)
		return
	}
	m := s.m
	nA := m.NumAttrs()
	lam := s.lambda()

	for a := 0; a < nA; a++ {
		for st := 0; st < s.sites; st++ {
			p.AttrSites[a][st] = false
		}
	}

	// Marginal objective-(4) cost of placing attribute a on site st:
	// C2(a) + Σ_{t on st} C1(a,t). Build the per-site transaction lists once.
	txnsOn := denseTxnsBySite(s, p)
	costOf := func(a, st int) float64 {
		c := m.C2(a)
		for _, t := range txnsOn[st] {
			c += m.C1(a, t)
		}
		return c
	}
	loadOf := func(a, st int) float64 {
		l := m.C4(a)
		for _, t := range txnsOn[st] {
			l += m.C3(a, t)
		}
		return l
	}

	work := s.resetWork()
	maxWork := func() float64 {
		mw := 0.0
		for _, w := range work {
			if w > mw {
				mw = w
			}
		}
		return mw
	}

	// Forced placements first (single-sitedness of reads).
	for t := 0; t < m.NumTxns(); t++ {
		st := p.TxnSite[t]
		for _, a := range m.TxnReadAttrs(t) {
			p.AttrSites[a][st] = true
		}
	}
	for a := 0; a < nA; a++ {
		for st := 0; st < s.sites; st++ {
			if p.AttrSites[a][st] {
				work[st] += loadOf(a, st)
			}
		}
	}

	// Process unplaced attributes in decreasing weight order (LPT-style) so
	// the load balancing term is handled sensibly.
	var order []int
	for a := 0; a < nA; a++ {
		if p.Replicas(a) == 0 {
			order = append(order, a)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		wi := m.C4(order[i]) + m.C2(order[i])
		wj := m.C4(order[j]) + m.C2(order[j])
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})
	cur := maxWork()
	// rush: the cancellation probe fired mid-pass. The remaining attributes
	// still need a site (the pass cleared every row above), so they are dumped
	// on site 0 unscored — feasible, just unoptimised — and the optional
	// extra-replica sweep is skipped entirely.
	rush := false
	for _, a := range order {
		if !rush && s.stopped() {
			rush = true
		}
		if rush {
			p.AttrSites[a][0] = true
			work[0] += loadOf(a, 0)
			if work[0] > cur {
				cur = work[0]
			}
			continue
		}
		best, bestScore := 0, 0.0
		for st := 0; st < s.sites; st++ {
			delta := work[st] + loadOf(a, st) - cur
			if delta < 0 {
				delta = 0
			}
			score := lam*costOf(a, st) + (1-lam)*delta
			if st == 0 || score < bestScore {
				best, bestScore = st, score
			}
		}
		p.AttrSites[a][best] = true
		work[best] += loadOf(a, best)
		if work[best] > cur {
			cur = work[best]
		}
	}

	// Beneficial extra replicas: a replica whose combined cost and load
	// effect is negative always pays off. Skipped in disjoint mode.
	if !s.opts.Disjoint && !rush {
		for a := 0; a < nA; a++ {
			if s.stopped() {
				break
			}
			for st := 0; st < s.sites; st++ {
				if p.AttrSites[a][st] {
					continue
				}
				delta := work[st] + loadOf(a, st) - cur
				if delta < 0 {
					delta = 0
				}
				if lam*costOf(a, st)+(1-lam)*delta < 0 {
					p.AttrSites[a][st] = true
					work[st] += loadOf(a, st)
					if work[st] > cur {
						cur = work[st]
					}
				}
			}
		}
	}
}

// denseSolveXGivenY re-assigns transactions to sites for a fixed attribute
// assignment. Only sites that hold all read attributes of a transaction are
// feasible. In disjoint mode whole components are assigned together.
func denseSolveXGivenY(s *solver, p *core.Partitioning) {
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
		if s.ct != nil && !s.txnSiteOK(t, st) {
			return false
		}
		for _, a := range m.TxnReadAttrs(t) {
			if !p.AttrSites[a][st] {
				return false
			}
		}
		return true
	}

	// Order transactions by decreasing read weight so heavy transactions are
	// placed while sites are still balanced.
	var order []int
	var weights []float64
	for t := 0; t < m.NumTxns(); t++ {
		order = append(order, t)
		w := 0.0
		for _, tc := range m.TxnTerms(t) {
			w += tc.C3
		}
		weights = append(weights, w)
	}
	sort.Slice(order, func(i, j int) bool {
		if weights[order[i]] != weights[order[j]] {
			return weights[order[i]] > weights[order[j]]
		}
		return order[i] < order[j]
	})

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
	for _, t := range order {
		// Cancellation mid-pass: the remaining transactions simply keep their
		// current (feasible) sites.
		if s.stopped() {
			break
		}
		best := p.TxnSite[t]
		bestScore := 0.0
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
				best, bestScore, found = st, score, true
			}
		}
		// At least the previous site of t is feasible because y only ever
		// extends after it was built for the previous x; if not (fresh y),
		// fall back to the old site and let the caller repair.
		p.TxnSite[t] = best
		_, load := costOn(t, best)
		work[best] += load
		if work[best] > cur {
			cur = work[best]
		}
	}
}

// denseSolveYGivenXConstrained is denseSolveYGivenX for a constrained model: forced and
// required replicas are placed first, colocation groups place as one unit,
// and every further placement respects forbidden sites, separation partners,
// replica caps and site capacities. When the hard placements alone overrun a
// capacity there is nothing local search can do about it — the caller's
// feasibility check (Partitioning.Validate) reports it.
func denseSolveYGivenXConstrained(s *solver, p *core.Partitioning) {
	m := s.m
	nA := m.NumAttrs()
	lam := s.lambda()

	for a := 0; a < nA; a++ {
		for st := 0; st < s.sites; st++ {
			p.AttrSites[a][st] = false
		}
	}

	txnsOn := denseTxnsBySite(s, p)
	costOf := func(a, st int) float64 {
		c := m.C2(a)
		for _, t := range txnsOn[st] {
			c += m.C1(a, t)
		}
		return c
	}
	loadOf := func(a, st int) float64 {
		l := m.C4(a)
		for _, t := range txnsOn[st] {
			l += m.C3(a, t)
		}
		return l
	}

	work := s.resetWork()
	bytes := s.resetBytes()
	place := func(a, st int) {
		if p.AttrSites[a][st] {
			return
		}
		p.AttrSites[a][st] = true
		work[st] += loadOf(a, st)
		bytes[st] += int64(m.Attr(a).Width)
	}

	// Hard placements: single-sitedness of reads, required sites, then the
	// colocation closure of both.
	for t := 0; t < m.NumTxns(); t++ {
		st := p.TxnSite[t]
		for _, a := range m.TxnReadAttrs(t) {
			place(a, st)
		}
	}
	for a := 0; a < nA; a++ {
		for st := 0; st < s.sites; st++ {
			if s.attrRequiredAt(a, st) {
				place(a, st)
			}
		}
	}
	for g := 0; g < s.cs.NumColocGroups(); g++ {
		members := s.cs.ColocGroupMembers(g)
		if len(members) < 2 {
			continue
		}
		for st := 0; st < s.sites; st++ {
			on := false
			for _, a := range members {
				if p.AttrSites[a][st] {
					on = true
					break
				}
			}
			if on {
				for _, a := range members {
					place(int(a), st)
				}
			}
		}
	}

	cur := 0.0
	for _, w := range work {
		if w > cur {
			cur = w
		}
	}

	// Cover the still-unplaced units: LPT order over the unit
	// representatives, each unit placed on its best allowed site (capacity
	// headroom respected when any site is capped; relaxed only when no
	// allowed site has room — covering every attribute outranks the cap,
	// and the feasibility check reports the overrun).
	var order []int
	for a := 0; a < nA; a++ {
		if p.Replicas(a) > 0 {
			continue
		}
		if g := s.cs.ColocGroupOf(a); g >= 0 && int(s.cs.ColocGroupMembers(g)[0]) != a {
			continue // the group places through its representative
		}
		order = append(order, a)
	}
	sort.Slice(order, func(i, j int) bool {
		wi := m.C4(order[i]) + m.C2(order[i])
		wj := m.C4(order[j]) + m.C2(order[j])
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})
	// rush: the cancellation probe fired mid-pass. Remaining units still need
	// a site (every row was cleared above); they take their first allowed site
	// unscored via the same relax fallback the no-site case uses, keeping the
	// assignment covered and constraint-respecting where possible.
	rush := false
	for _, a := range order {
		if !rush && s.stopped() {
			rush = true
		}
		if rush {
			best := s.cs.PlaceAllowedSite(m, p, a, nil)
			if best < 0 {
				best = 0
			}
			for _, b := range s.nb.Unit(a) {
				place(int(b), best)
			}
			if work[best] > cur {
				cur = work[best]
			}
			continue
		}
		members := s.nb.Unit(a)
		var unitWidth int64
		for _, b := range members {
			unitWidth += int64(m.Attr(int(b)).Width)
		}
		allowedAt := func(st int, respectCap bool) bool {
			for _, b := range members {
				if s.attrForbiddenAt(int(b), st) || s.sepConflict(p, int(b), st) {
					return false
				}
			}
			if respectCap && s.ct.HasCap {
				if cap := s.ct.SiteCap[st]; cap >= 0 && bytes[st]+unitWidth > cap {
					return false
				}
			}
			return true
		}
		best, bestScore, found := -1, 0.0, false
		for pass := 0; pass < 2 && !found; pass++ {
			respectCap := pass == 0
			for st := 0; st < s.sites; st++ {
				if !allowedAt(st, respectCap) {
					continue
				}
				cost, load := 0.0, 0.0
				for _, b := range members {
					cost += costOf(int(b), st)
					load += loadOf(int(b), st)
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
			if found {
				break
			}
		}
		if !found {
			// Every site is blocked by a forbid, a separation partner or the
			// capacity: relax in preference order so the unit is at least
			// stored somewhere (the feasibility check reports the leftover
			// violation).
			best = s.cs.PlaceAllowedSite(m, p, a, nil)
			if best < 0 {
				best = 0
			}
		}
		for _, b := range members {
			place(int(b), best)
		}
		if work[best] > cur {
			cur = work[best]
		}
	}

	// Beneficial extra replicas, each addition fully constraint-checked.
	// Skipped entirely once the cancellation probe fires — they are an
	// optional improvement, not needed for feasibility.
	for a := 0; a < nA && !rush; a++ {
		if s.stopped() {
			break
		}
		if g := s.cs.ColocGroupOf(a); g >= 0 && int(s.cs.ColocGroupMembers(g)[0]) != a {
			continue
		}
		members := s.nb.Unit(a)
		var unitWidth int64
		for _, b := range members {
			unitWidth += int64(m.Attr(int(b)).Width)
		}
		maxRep := s.cs.MaxReplicasOf(a)
		for st := 0; st < s.sites; st++ {
			if p.AttrSites[a][st] {
				continue
			}
			if p.Replicas(a)+1 > maxRep {
				break
			}
			ok := true
			for _, b := range members {
				if s.attrForbiddenAt(int(b), st) || s.sepConflict(p, int(b), st) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if s.ct.HasCap {
				if cap := s.ct.SiteCap[st]; cap >= 0 && bytes[st]+unitWidth > cap {
					continue
				}
			}
			cost, load := 0.0, 0.0
			for _, b := range members {
				cost += costOf(int(b), st)
				load += loadOf(int(b), st)
			}
			delta := work[st] + load - cur
			if delta < 0 {
				delta = 0
			}
			if lam*cost+(1-lam)*delta < 0 {
				for _, b := range members {
					place(int(b), st)
				}
				if work[st] > cur {
					cur = work[st]
				}
			}
		}
	}
}

// denseSolveYGivenXDisjoint assigns every attribute to exactly one site for a
// fixed transaction assignment. Attributes read by some transaction follow
// their readers (all readers share a site in disjoint-feasible assignments);
// unread attributes go to the cheapest site.
func denseSolveYGivenXDisjoint(s *solver, p *core.Partitioning) {
	m := s.m
	lam := s.lambda()
	nA := m.NumAttrs()
	for a := 0; a < nA; a++ {
		for st := 0; st < s.sites; st++ {
			p.AttrSites[a][st] = false
		}
	}
	txnsOn := denseTxnsBySite(s, p)
	work := s.resetWork()
	cur := 0.0
	place := func(a, st int) {
		p.AttrSites[a][st] = true
		l := m.C4(a)
		for _, t := range txnsOn[st] {
			l += m.C3(a, t)
		}
		work[st] += l
		if work[st] > cur {
			cur = work[st]
		}
	}
	var unread []int
	for a := 0; a < nA; a++ {
		if len(s.readersOf[a]) > 0 {
			place(a, p.TxnSite[s.readersOf[a][0]])
		} else {
			unread = append(unread, a)
		}
	}
	// rush: cancellation fired mid-pass — the remaining unread attributes are
	// dumped on site 0 unscored (they still need exactly one site each).
	rush := false
	for _, a := range unread {
		if !rush && s.stopped() {
			rush = true
		}
		if rush {
			place(a, 0)
			continue
		}
		best, bestScore := 0, 0.0
		for st := 0; st < s.sites; st++ {
			c := m.C2(a)
			for _, t := range txnsOn[st] {
				c += m.C1(a, t)
			}
			l := m.C4(a)
			for _, t := range txnsOn[st] {
				l += m.C3(a, t)
			}
			delta := work[st] + l - cur
			if delta < 0 {
				delta = 0
			}
			score := lam*c + (1-lam)*delta
			if st == 0 || score < bestScore {
				best, bestScore = st, score
			}
		}
		place(a, best)
	}
}
