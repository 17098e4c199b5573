package core

import (
	"fmt"
	"sort"
	"strings"
)

// Partitioning is a candidate solution of the vertical partitioning problem:
// a disjoint assignment of transactions to sites (the paper's x) and a
// non-disjoint assignment of attributes to sites (the paper's y).
type Partitioning struct {
	// Sites is the number of sites |S|.
	Sites int
	// TxnSite[t] is the primary executing site of transaction t.
	TxnSite []int
	// AttrSites[a][s] reports whether attribute a is stored on site s.
	AttrSites [][]bool
}

// NewPartitioning allocates an empty partitioning for the given model
// dimensions. All transactions are placed on site 0 and no attribute is
// placed anywhere; callers must fill it in (see SingleSite for a trivially
// feasible layout).
func NewPartitioning(numTxns, numAttrs, sites int) *Partitioning {
	p := &Partitioning{
		Sites:     sites,
		TxnSite:   make([]int, numTxns),
		AttrSites: make([][]bool, numAttrs),
	}
	for a := range p.AttrSites {
		p.AttrSites[a] = make([]bool, sites)
	}
	return p
}

// SingleSite returns the trivial partitioning that places every transaction
// and every attribute on site 0 of a cluster with the given number of sites.
// It is always feasible and serves as the |S| = 1 baseline of the paper's
// tables.
func SingleSite(m *Model, sites int) *Partitioning {
	p := NewPartitioning(m.NumTxns(), m.NumAttrs(), sites)
	for a := 0; a < m.NumAttrs(); a++ {
		p.AttrSites[a][0] = true
	}
	return p
}

// FullReplication returns the partitioning that replicates every attribute to
// every site and spreads transactions round-robin. It is always feasible.
func FullReplication(m *Model, sites int) *Partitioning {
	p := NewPartitioning(m.NumTxns(), m.NumAttrs(), sites)
	for t := 0; t < m.NumTxns(); t++ {
		p.TxnSite[t] = t % sites
	}
	for a := 0; a < m.NumAttrs(); a++ {
		for s := 0; s < sites; s++ {
			p.AttrSites[a][s] = true
		}
	}
	return p
}

// Clone returns a deep copy of the partitioning.
func (p *Partitioning) Clone() *Partitioning {
	c := &Partitioning{
		Sites:     p.Sites,
		TxnSite:   append([]int(nil), p.TxnSite...),
		AttrSites: make([][]bool, len(p.AttrSites)),
	}
	for a := range p.AttrSites {
		c.AttrSites[a] = append([]bool(nil), p.AttrSites[a]...)
	}
	return c
}

// CopyFrom copies src's assignment into p without allocating. The two
// partitionings must have equal dimensions.
func (p *Partitioning) CopyFrom(src *Partitioning) {
	if p.Sites != src.Sites || len(p.TxnSite) != len(src.TxnSite) || len(p.AttrSites) != len(src.AttrSites) {
		panic("partitioning: CopyFrom with mismatching dimensions")
	}
	copy(p.TxnSite, src.TxnSite)
	for a := range src.AttrSites {
		copy(p.AttrSites[a], src.AttrSites[a])
	}
}

// Replicas returns the number of sites attribute a is stored on.
func (p *Partitioning) Replicas(a int) int {
	n := 0
	for _, on := range p.AttrSites[a] {
		if on {
			n++
		}
	}
	return n
}

// TotalReplicas returns Σ_a Replicas(a).
func (p *Partitioning) TotalReplicas() int {
	n := 0
	for a := range p.AttrSites {
		n += p.Replicas(a)
	}
	return n
}

// IsDisjoint reports whether no attribute is replicated (every attribute is
// stored on exactly one site).
func (p *Partitioning) IsDisjoint() bool {
	for a := range p.AttrSites {
		if p.Replicas(a) != 1 {
			return false
		}
	}
	return true
}

// AttrsOnSite returns the sorted attribute ids stored on site s.
func (p *Partitioning) AttrsOnSite(s int) []int {
	var ids []int
	for a := range p.AttrSites {
		if p.AttrSites[a][s] {
			ids = append(ids, a)
		}
	}
	return ids
}

// TxnsOnSite returns the sorted transaction ids executing on site s.
func (p *Partitioning) TxnsOnSite(s int) []int {
	var ids []int
	for t, site := range p.TxnSite {
		if site == s {
			ids = append(ids, t)
		}
	}
	return ids
}

// Validate checks that the partitioning is feasible for the model:
//
//   - dimensions match the model and the site count is positive,
//   - every transaction is assigned to a site in [0, Sites),
//   - every attribute is stored on at least one site (Σ_s y_{a,s} ≥ 1),
//   - single-sitedness of reads: for every transaction t and attribute a
//     with ϕ_{a,t} = 1, a is stored on t's site,
//   - when the model carries compiled placement constraints, every
//     constraint holds (pins, forbids, colocation, separation, replica caps
//     and site capacities).
func (p *Partitioning) Validate(m *Model) error {
	if p.Sites <= 0 {
		return fmt.Errorf("partitioning: non-positive site count %d", p.Sites)
	}
	if len(p.TxnSite) != m.NumTxns() {
		return fmt.Errorf("partitioning: %d transactions, model has %d", len(p.TxnSite), m.NumTxns())
	}
	if len(p.AttrSites) != m.NumAttrs() {
		return fmt.Errorf("partitioning: %d attributes, model has %d", len(p.AttrSites), m.NumAttrs())
	}
	for t, s := range p.TxnSite {
		if s < 0 || s >= p.Sites {
			return fmt.Errorf("partitioning: transaction %q assigned to invalid site %d", m.TxnName(t), s)
		}
	}
	for a := range p.AttrSites {
		if len(p.AttrSites[a]) != p.Sites {
			return fmt.Errorf("partitioning: attribute %s has %d site slots, want %d",
				m.Attr(a).Qualified, len(p.AttrSites[a]), p.Sites)
		}
		if p.Replicas(a) == 0 {
			return fmt.Errorf("partitioning: attribute %s is not stored on any site", m.Attr(a).Qualified)
		}
	}
	for t := 0; t < m.NumTxns(); t++ {
		site := p.TxnSite[t]
		for _, a := range m.TxnReadAttrs(t) {
			if !p.AttrSites[a][site] {
				return fmt.Errorf("partitioning: single-sitedness violated: transaction %q on site %d reads %s which is not stored there",
					m.TxnName(t), site, m.Attr(a).Qualified)
			}
		}
	}
	if m.cons != nil {
		if err := m.cons.check(m, p, false); err != nil {
			return fmt.Errorf("partitioning: %w", err)
		}
	}
	return nil
}

// Repair makes the partitioning feasible in place: transactions on invalid
// sites are moved to site 0, attributes read by a transaction are replicated
// to the transaction's site, and attributes stored nowhere are placed on the
// site with the smallest index. It returns the number of attribute replicas
// added or moved.
//
// When the model carries compiled placement constraints, Repair additionally
// enforces the constructive ones: pinned transactions move to their pinned
// site, transactions leave sites a read attribute is forbidden on, required
// replicas are added, forbidden replicas are dropped and colocation groups
// are unioned onto identical site sets. Replica caps, separations and site
// capacities are not repaired (there is no canonical least-change fix);
// Validate remains the oracle for those.
func (p *Partitioning) Repair(m *Model) int {
	cs := m.cons
	if cs == nil {
		changed := 0
		for t := range p.TxnSite {
			if p.TxnSite[t] < 0 || p.TxnSite[t] >= p.Sites {
				p.TxnSite[t] = 0
				changed++
			}
		}
		for t := 0; t < m.NumTxns(); t++ {
			site := p.TxnSite[t]
			for _, a := range m.TxnReadAttrs(t) {
				if !p.AttrSites[a][site] {
					p.AttrSites[a][site] = true
					changed++
				}
			}
		}
		for a := range p.AttrSites {
			if p.Replicas(a) == 0 {
				p.AttrSites[a][0] = true
				changed++
			}
		}
		return changed
	}
	return p.repairConstrained(m, cs)
}

// repairConstrained is the constraint-aware Repair body.
func (p *Partitioning) repairConstrained(m *Model, cs *ConstraintSet) int {
	changed := 0
	// Transactions: pins first, then any transaction on an invalid or
	// disallowed site (one where a read attribute is forbidden) moves to its
	// first allowed site.
	for t := range p.TxnSite {
		s := p.TxnSite[t]
		if pin := cs.TxnPin(t); pin >= 0 && pin < p.Sites {
			if s != pin {
				p.TxnSite[t] = pin
				changed++
			}
			continue
		}
		if s >= 0 && s < p.Sites && cs.TxnSiteAllowed(m, t, s) {
			continue
		}
		moved := false
		for cand := 0; cand < p.Sites; cand++ {
			if cs.TxnSiteAllowed(m, t, cand) {
				p.TxnSite[t] = cand
				changed++
				moved = true
				break
			}
		}
		// No allowed site exists (an unsatisfiable set the caller did not
		// run ValidateConstraintSites against): still clamp an out-of-range
		// index so the read-attribute loop below cannot index out of bounds.
		if !moved && (s < 0 || s >= p.Sites) {
			p.TxnSite[t] = 0
			changed++
		}
	}
	// Required replicas and single-sitedness of reads (transaction sites are
	// allowed now, so these additions never land on a forbidden site).
	for a := range p.AttrSites {
		for _, s := range cs.Required(a) {
			if int(s) < p.Sites && !p.AttrSites[a][s] {
				p.AttrSites[a][s] = true
				changed++
			}
		}
	}
	for t := 0; t < m.NumTxns(); t++ {
		site := p.TxnSite[t]
		for _, a := range m.TxnReadAttrs(t) {
			if !p.AttrSites[a][site] {
				p.AttrSites[a][site] = true
				changed++
			}
		}
	}
	// Forbidden replicas go, then uncovered attributes land on their first
	// allowed site, then colocation groups union onto identical site sets
	// (their members share forbidden sets, so the union stays allowed).
	for a := range p.AttrSites {
		for _, s := range cs.Forbidden(a) {
			if int(s) < p.Sites && p.AttrSites[a][s] {
				p.AttrSites[a][s] = false
				changed++
			}
		}
	}
	var used []int64
	if cs.HasCapacities() {
		used = SiteWidthUsage(m, p)
	}
	for a := range p.AttrSites {
		if p.Replicas(a) > 0 {
			continue
		}
		// Prefer an allowed site that keeps separations and capacities
		// intact; the preference relaxes rather than leaving the attribute
		// uncovered (Validate reports what could not be honoured).
		if s := cs.PlaceAllowedSite(m, p, a, used); s >= 0 {
			p.AttrSites[a][s] = true
			changed++
			if used != nil {
				used[s] += int64(m.Attr(a).Width)
			}
		}
	}
	for g := 0; g < cs.NumColocGroups(); g++ {
		members := cs.ColocGroupMembers(g)
		if len(members) < 2 {
			continue
		}
		for s := 0; s < p.Sites; s++ {
			on := false
			for _, a := range members {
				if p.AttrSites[a][s] {
					on = true
					break
				}
			}
			if !on {
				continue
			}
			for _, a := range members {
				if !p.AttrSites[a][s] {
					p.AttrSites[a][s] = true
					changed++
				}
			}
		}
	}
	return changed
}

// Carry re-expresses p, a layout computed over the model from, over the
// model to, matching transactions and attributes by name: a column added to
// any table but the last renumbers the attributes of every later table, so
// an index-based copy would hand each of them its neighbour's placement.
// While to's indices still match from's names, as they do unless an added
// column renumbered them, each lookup is one comparison. With from nil, p's
// indices are taken to be to's, so p may not be larger than to. A name to
// lacks is an error. What p predates is left unplaced (site -1, no replica)
// for the caller to fill: Repair places it for a warm start, and
// CheckConstraintsPartial skips it. p is never mutated.
func Carry(from *Model, p *Partitioning, to *Model) (*Partitioning, error) {
	if p == nil {
		return nil, fmt.Errorf("carry: nil partitioning")
	}
	if p.Sites <= 0 {
		return nil, fmt.Errorf("carry: non-positive site count %d", p.Sites)
	}
	nT, nA := len(p.TxnSite), len(p.AttrSites)
	if from != nil && (nT != from.NumTxns() || nA != from.NumAttrs()) {
		return nil, fmt.Errorf("carry: partitioning has %d txns × %d attrs, its model %d × %d",
			nT, nA, from.NumTxns(), from.NumAttrs())
	}
	if from == nil && (nT > to.NumTxns() || nA > to.NumAttrs()) {
		return nil, fmt.Errorf("carry: partitioning has %d txns × %d attrs, model only %d × %d (dimensions cannot shrink)",
			nT, nA, to.NumTxns(), to.NumAttrs())
	}
	out := NewPartitioning(to.NumTxns(), to.NumAttrs(), p.Sites)
	for t := range out.TxnSite {
		out.TxnSite[t] = -1
	}
	for t, s := range p.TxnSite {
		id := t
		if from != nil && (t >= to.NumTxns() || to.txnNames[t] != from.txnNames[t]) {
			var ok bool
			if id, ok = to.TxnIndex(from.txnNames[t]); !ok {
				return nil, fmt.Errorf("carry: unknown transaction %q", from.txnNames[t])
			}
		}
		out.TxnSite[id] = s
	}
	for a, sites := range p.AttrSites {
		if len(sites) != p.Sites {
			return nil, fmt.Errorf("carry: attribute %d has %d site slots, want %d", a, len(sites), p.Sites)
		}
		id := a
		if from != nil && (a >= to.NumAttrs() || to.attrs[a].Qualified != from.attrs[a].Qualified) {
			var ok bool
			if id, ok = to.AttrID(from.attrs[a].Qualified); !ok {
				return nil, fmt.Errorf("carry: unknown attribute %s", from.attrs[a].Qualified)
			}
		}
		copy(out.AttrSites[id], sites)
	}
	return out, nil
}

// Format renders the partitioning in the style of the paper's Table 4: one
// section per site with the transactions executed there followed by the
// attributes stored there.
func (p *Partitioning) Format(m *Model) string {
	var b strings.Builder
	for s := 0; s < p.Sites; s++ {
		fmt.Fprintf(&b, "Site %d\n", s+1)
		txns := p.TxnsOnSite(s)
		if len(txns) == 0 {
			b.WriteString("  (no transactions)\n")
		}
		for _, t := range txns {
			fmt.Fprintf(&b, "  Transaction %s\n", m.TxnName(t))
		}
		names := make([]string, 0)
		for _, a := range p.AttrsOnSite(s) {
			names = append(names, m.Attr(a).Qualified.String())
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "  %s\n", n)
		}
		if s != p.Sites-1 {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Assignment is a serialisable representation of a partitioning using names
// instead of indices. It is what the CLI prints and reads.
type Assignment struct {
	Sites        int               `json:"sites"`
	Transactions map[string]int    `json:"transactions"`
	Attributes   map[string][]int  `json:"attributes"`
	Instance     string            `json:"instance,omitempty"`
	Meta         map[string]string `json:"meta,omitempty"`
}

// ToAssignment converts the partitioning into its name-based form.
func (p *Partitioning) ToAssignment(m *Model) *Assignment {
	as := &Assignment{
		Sites:        p.Sites,
		Transactions: make(map[string]int, len(p.TxnSite)),
		Attributes:   make(map[string][]int, len(p.AttrSites)),
		Instance:     m.Instance().Name,
	}
	for t, s := range p.TxnSite {
		as.Transactions[m.TxnName(t)] = s
	}
	for a := range p.AttrSites {
		var sites []int
		for s, on := range p.AttrSites[a] {
			if on {
				sites = append(sites, s)
			}
		}
		as.Attributes[m.Attr(a).Qualified.String()] = sites
	}
	return as
}

// FromAssignment converts a name-based assignment back into a Partitioning
// for the given model.
func FromAssignment(m *Model, as *Assignment) (*Partitioning, error) {
	if as.Sites <= 0 {
		return nil, fmt.Errorf("assignment: non-positive site count %d", as.Sites)
	}
	p := NewPartitioning(m.NumTxns(), m.NumAttrs(), as.Sites)
	// Iterate both name maps in sorted order: the stores are commutative, but
	// on a malformed assignment the error returned must not depend on map
	// iteration order.
	txnNames := make([]string, 0, len(as.Transactions))
	for name := range as.Transactions {
		txnNames = append(txnNames, name)
	}
	sort.Strings(txnNames)
	for _, name := range txnNames {
		t, ok := m.TxnIndex(name)
		if !ok {
			return nil, fmt.Errorf("assignment: unknown transaction %q", name)
		}
		p.TxnSite[t] = as.Transactions[name]
	}
	attrNames := make([]string, 0, len(as.Attributes))
	for name := range as.Attributes {
		attrNames = append(attrNames, name)
	}
	sort.Strings(attrNames)
	for _, name := range attrNames {
		sites := as.Attributes[name]
		a, err := attrByName(m, name)
		if err != nil {
			return nil, fmt.Errorf("assignment: %w", err)
		}
		for _, s := range sites {
			if s < 0 || s >= as.Sites {
				return nil, fmt.Errorf("assignment: attribute %q placed on invalid site %d", name, s)
			}
			p.AttrSites[a][s] = true
		}
	}
	return p, nil
}

// attrByName resolves a "Table.Attr" string, as ToAssignment writes it, to
// an attribute id of m. Table and attribute names may contain dots
// themselves ("public.users"), so every split point is tried; a string that
// names two attributes (table "a" with attribute "b.c", table "a.b" with
// attribute "c") is ambiguous.
func attrByName(m *Model, s string) (int, error) {
	id, n := 0, 0
	for i := 1; i < len(s)-1; i++ {
		if s[i] != '.' {
			continue
		}
		if a, ok := m.AttrID(QualifiedAttr{Table: s[:i], Attr: s[i+1:]}); ok {
			id, n = a, n+1
		}
	}
	switch n {
	case 0:
		if _, err := ParseQualifiedAttr(s); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("unknown attribute %q", s)
	case 1:
		return id, nil
	default:
		return 0, fmt.Errorf("ambiguous attribute %q names %d attributes", s, n)
	}
}
