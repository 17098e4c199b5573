package scenario

import "vpart/internal/core"

// The degraded-mode layout surgery. These helpers model the minimal
// mechanical reaction an operator takes when infrastructure fails — just
// enough to keep serving, never an optimisation. The stale control layout
// gets nothing but this surgery; the advisor gets the same surgery as its
// warm anchor and then re-solves on top of it.
//
// All helpers are pure (the input layout is never mutated) and fully
// deterministic: ties break on the lowest site or attribute index.

// lowestLive returns the lowest-index site not marked down. down may be nil
// (everything live); callers guarantee at least one live site.
func lowestLive(down []bool, sites int) int {
	for s := 0; s < sites; s++ {
		if s >= len(down) || !down[s] {
			return s
		}
	}
	return 0
}

// leastUsedLive returns the live site (≠ exclude) with the smallest byte
// usage, ties to the lowest index. exclude < 0 excludes nothing.
func leastUsedLive(usage []int64, down []bool, exclude int) int {
	best := -1
	for s := range usage {
		if s == exclude || (s < len(down) && down[s]) {
			continue
		}
		if best < 0 || usage[s] < usage[best] {
			best = s
		}
	}
	return best
}

// bestReadSite returns the live site holding the largest summed width of
// transaction t's read attributes under p, ties to the lowest index; with no
// read attributes stored anywhere live it falls back to the lowest live site.
func bestReadSite(m *core.Model, p *core.Partitioning, t int, down []bool) int {
	best, bestW := -1, -1
	for s := 0; s < p.Sites; s++ {
		if s < len(down) && down[s] {
			continue
		}
		w := 0
		for _, a := range m.TxnReadAttrs(t) {
			if p.AttrSites[a][s] {
				w += m.Attr(a).Width
			}
		}
		if w > bestW {
			best, bestW = s, w
		}
	}
	if best < 0 {
		best = lowestLive(down, p.Sites)
	}
	return best
}

// padLayout carries p, a layout computed over the model from, onto m by name
// (core.Carry) and fills what it predates without repairing it: transactions
// are routed to the live site holding the largest width of their read
// attributes, attributes land on the lowest live site. Unlike a warm start's
// Repair no read replicas are added — a stale layout must keep paying its
// remote reads, not get free replication from the harness.
func padLayout(from *core.Model, p *core.Partitioning, m *core.Model, down []bool) (*core.Partitioning, error) {
	out, err := core.Carry(from, p, m)
	if err != nil {
		return nil, err
	}
	for a := range out.AttrSites {
		if out.Replicas(a) == 0 {
			out.AttrSites[a][lowestLive(down, out.Sites)] = true
		}
	}
	for t, s := range out.TxnSite {
		if s < 0 {
			out.TxnSite[t] = bestReadSite(m, out, t, down)
		}
	}
	return out, nil
}

// degradeSiteLoss is the mechanical failover after losing a site: every
// replica on the dead site is dropped, attributes left with no replica are
// re-homed to the least-loaded live site, and transactions homed on any down
// site move to the live site holding most of their read set. Read sets are
// NOT replicated to the new transaction sites — the degraded layout pays
// remote reads for whatever it lost, which is exactly the realized cost of
// not re-solving. down must already mark site as down; p must match m's
// dimensions (padLayout first).
func degradeSiteLoss(m *core.Model, p *core.Partitioning, site int, down []bool) *core.Partitioning {
	out := p.Clone()
	usage := core.SiteWidthUsage(m, out)
	for a := range out.AttrSites {
		if !out.AttrSites[a][site] {
			continue
		}
		w := int64(m.Attr(a).Width)
		out.AttrSites[a][site] = false
		usage[site] -= w
		if out.Replicas(a) == 0 {
			s := leastUsedLive(usage, down, -1)
			out.AttrSites[a][s] = true
			usage[s] += w
		}
	}
	for t := range out.TxnSite {
		s := out.TxnSite[t]
		if s < len(down) && down[s] {
			out.TxnSite[t] = bestReadSite(m, out, t, down)
		}
	}
	return out
}

// evictToCapacity shrinks the layout's footprint on site until it fits within
// bytes: the widest attribute stored there goes first (ties to the lowest
// id) — surplus replicas are simply dropped, single-replica attributes move
// to the least-loaded live site. Transactions homed on site that read an
// evicted attribute follow it to its surviving home, so a later
// constraint-aware Repair (inside the advisor's Adopt) has no reason to
// replicate anything back onto the shrunk site. p must match m's dimensions.
func evictToCapacity(m *core.Model, p *core.Partitioning, site int, bytes int64, down []bool) *core.Partitioning {
	out := p.Clone()
	usage := core.SiteWidthUsage(m, out)
	for usage[site] > bytes {
		a := -1
		for cand := range out.AttrSites {
			if out.AttrSites[cand][site] && (a < 0 || m.Attr(cand).Width > m.Attr(a).Width) {
				a = cand
			}
		}
		if a < 0 {
			break // nothing stored, yet over budget: unreachable for bytes ≥ 0
		}
		w := int64(m.Attr(a).Width)
		out.AttrSites[a][site] = false
		usage[site] -= w
		var home int
		if out.Replicas(a) == 0 {
			home = leastUsedLive(usage, down, site)
			out.AttrSites[a][home] = true
			usage[home] += w
		} else {
			home = -1
			for s := 0; s < out.Sites; s++ {
				if out.AttrSites[a][s] && (s >= len(down) || !down[s]) {
					home = s
					break
				}
			}
			if home < 0 { // only down-site replicas survive: re-home live
				home = leastUsedLive(usage, down, site)
				out.AttrSites[a][home] = true
				usage[home] += w
			}
		}
		for t := range out.TxnSite {
			if out.TxnSite[t] != site {
				continue
			}
			for _, ra := range m.TxnReadAttrs(t) {
				if ra == a {
					out.TxnSite[t] = home
					break
				}
			}
		}
	}
	return out
}
