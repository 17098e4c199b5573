package core

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
)

// The typed placement-constraint vocabulary. Constraints reference schema
// objects by name (transaction names, "Table.Attr" qualified attributes), so
// a constraint set survives workload deltas, reasonable-cuts grouping and
// serialisation: it is compiled against whatever model it is applied to.
//
// Semantics (checked by Constraints.Check / Partitioning.Validate):
//
//   - PinTxn{Txn, Site}:     the transaction's primary site is exactly Site.
//   - PinAttr{Attr, Site}:   Site is among the attribute's replica sites.
//   - ForbidAttr{Attr,Site}: Site is not among the attribute's replica sites.
//   - Colocate{A, B}:        A and B are stored on identical site sets
//     (transitive: colocation pairs form groups).
//   - Separate{A, B}:        A and B share no site.
//   - MaxReplicas{Attr, K}:  the attribute is stored on at most K sites.
//   - SiteCapacity{Site, Bytes}: the summed widths of the attributes stored
//     on Site stay within Bytes.

// PinTxn pins transaction Txn to primary site Site.
type PinTxn struct {
	Txn  string `json:"txn"`
	Site int    `json:"site"`
}

// PinAttr requires attribute Attr to be stored on Site (replicas elsewhere
// stay allowed).
type PinAttr struct {
	Attr QualifiedAttr `json:"attr"`
	Site int           `json:"site"`
}

// ForbidAttr forbids storing attribute Attr on Site.
type ForbidAttr struct {
	Attr QualifiedAttr `json:"attr"`
	Site int           `json:"site"`
}

// Colocate requires attributes A and B to be stored on identical site sets.
type Colocate struct {
	A QualifiedAttr `json:"a"`
	B QualifiedAttr `json:"b"`
}

// Separate forbids attributes A and B from sharing any site.
type Separate struct {
	A QualifiedAttr `json:"a"`
	B QualifiedAttr `json:"b"`
}

// MaxReplicas caps the replication of attribute Attr at K sites (K ≥ 1).
type MaxReplicas struct {
	Attr QualifiedAttr `json:"attr"`
	K    int           `json:"k"`
}

// SiteCapacity bounds the summed attribute widths stored on Site by Bytes.
type SiteCapacity struct {
	Site  int   `json:"site"`
	Bytes int64 `json:"bytes"`
}

// Constraints is a named, serialisable set of placement constraints carried
// in the solve options and compiled into every Model built for the solve.
// The zero value (and nil) mean "unconstrained": such a set compiles to the
// nil ConstraintSet.
type Constraints struct {
	PinTxns        []PinTxn       `json:"pin_txns,omitempty"`
	PinAttrs       []PinAttr      `json:"pin_attrs,omitempty"`
	ForbidAttrs    []ForbidAttr   `json:"forbid_attrs,omitempty"`
	Colocate       []Colocate     `json:"colocate,omitempty"`
	Separate       []Separate     `json:"separate,omitempty"`
	MaxReplicas    []MaxReplicas  `json:"max_replicas,omitempty"`
	SiteCapacities []SiteCapacity `json:"site_capacities,omitempty"`
}

// Empty reports whether the set contains no constraint (nil-safe).
func (c *Constraints) Empty() bool {
	return c == nil || len(c.PinTxns)+len(c.PinAttrs)+len(c.ForbidAttrs)+
		len(c.Colocate)+len(c.Separate)+len(c.MaxReplicas)+len(c.SiteCapacities) == 0
}

// Len returns the number of individual constraints in the set (nil-safe).
func (c *Constraints) Len() int {
	if c == nil {
		return 0
	}
	return len(c.PinTxns) + len(c.PinAttrs) + len(c.ForbidAttrs) +
		len(c.Colocate) + len(c.Separate) + len(c.MaxReplicas) + len(c.SiteCapacities)
}

// Clone returns an independent deep copy (nil in, nil out).
func (c *Constraints) Clone() *Constraints {
	if c == nil {
		return nil
	}
	cp := &Constraints{
		PinTxns:        append([]PinTxn(nil), c.PinTxns...),
		PinAttrs:       append([]PinAttr(nil), c.PinAttrs...),
		ForbidAttrs:    append([]ForbidAttr(nil), c.ForbidAttrs...),
		Colocate:       append([]Colocate(nil), c.Colocate...),
		Separate:       append([]Separate(nil), c.Separate...),
		MaxReplicas:    append([]MaxReplicas(nil), c.MaxReplicas...),
		SiteCapacities: append([]SiteCapacity(nil), c.SiteCapacities...),
	}
	return cp
}

// String summarises the set for logs.
func (c *Constraints) String() string {
	if c.Empty() {
		return "constraints{}"
	}
	return fmt.Sprintf("constraints{%d pin-txn, %d pin-attr, %d forbid, %d colocate, %d separate, %d max-replicas, %d capacities}",
		len(c.PinTxns), len(c.PinAttrs), len(c.ForbidAttrs), len(c.Colocate),
		len(c.Separate), len(c.MaxReplicas), len(c.SiteCapacities))
}

// Validate checks the set for structural soundness independent of any
// instance: names non-empty, site indices non-negative, K ≥ 1, Bytes > 0,
// pair constraints relating two distinct attributes.
func (c *Constraints) Validate() error {
	if c == nil {
		return nil
	}
	for _, p := range c.PinTxns {
		if p.Txn == "" {
			return fmt.Errorf("constraints: pin-txn with empty transaction name")
		}
		if p.Site < 0 {
			return fmt.Errorf("constraints: pin-txn %q to negative site %d", p.Txn, p.Site)
		}
	}
	checkAttr := func(kind string, q QualifiedAttr) error {
		if q.Table == "" || q.Attr == "" {
			return fmt.Errorf("constraints: %s with incomplete attribute reference %q", kind, q)
		}
		return nil
	}
	for _, p := range c.PinAttrs {
		if err := checkAttr("pin-attr", p.Attr); err != nil {
			return err
		}
		if p.Site < 0 {
			return fmt.Errorf("constraints: pin-attr %s to negative site %d", p.Attr, p.Site)
		}
	}
	for _, f := range c.ForbidAttrs {
		if err := checkAttr("forbid-attr", f.Attr); err != nil {
			return err
		}
		if f.Site < 0 {
			return fmt.Errorf("constraints: forbid-attr %s on negative site %d", f.Attr, f.Site)
		}
	}
	for _, p := range c.Colocate {
		if err := checkAttr("colocate", p.A); err != nil {
			return err
		}
		if err := checkAttr("colocate", p.B); err != nil {
			return err
		}
	}
	for _, p := range c.Separate {
		if err := checkAttr("separate", p.A); err != nil {
			return err
		}
		if err := checkAttr("separate", p.B); err != nil {
			return err
		}
		if p.A == p.B {
			return fmt.Errorf("constraints: separate %s from itself", p.A)
		}
	}
	for _, mr := range c.MaxReplicas {
		if err := checkAttr("max-replicas", mr.Attr); err != nil {
			return err
		}
		if mr.K < 1 {
			return fmt.Errorf("constraints: max-replicas %s with k = %d (want ≥ 1)", mr.Attr, mr.K)
		}
	}
	for _, sc := range c.SiteCapacities {
		if sc.Site < 0 {
			return fmt.Errorf("constraints: capacity for negative site %d", sc.Site)
		}
		if sc.Bytes <= 0 {
			return fmt.Errorf("constraints: non-positive capacity %d bytes for site %d", sc.Bytes, sc.Site)
		}
	}
	return nil
}

// Check compiles the set against the model and verifies that the
// partitioning satisfies every constraint. It is the reference oracle the
// property tests hold every solver's output to; Partitioning.Validate runs
// the same check when the model carries compiled constraints.
func (c *Constraints) Check(m *Model, p *Partitioning) error {
	if c.Empty() {
		return nil
	}
	cs := m.Constraints()
	if cs == nil || cs.src != c {
		var err error
		cs, err = compileConstraints(m, c)
		if err != nil {
			return err
		}
	}
	return cs.check(m, p, false)
}

// unlimitedReplicas is the per-attribute replica cap when no MaxReplicas
// constraint applies.
const unlimitedReplicas = int32(math.MaxInt32)

// ConstraintSet is a Constraints value compiled against one concrete model:
// every name resolved to an index, transaction pins propagated to the
// attributes they read (single-sitedness makes a pinned transaction's read
// set required on the pinned site), colocation groups unioned, and the
// obviously conflicting combinations rejected. Solvers consult it through
// Model.Constraints.
//
// A nil *ConstraintSet is the empty set, the one an unconstrained model
// carries: every accessor answers as if no constraint existed (no pin, every
// site allowed, nothing required, forbidden, separated or colocated, no
// replica cap or capacity), so a constraint-aware caller needs no separate
// unconstrained path.
type ConstraintSet struct {
	src *Constraints

	maxSite int // highest site index any constraint references

	txnPin []int32 // per txn, -1 when unpinned

	// Per-attribute effective sets after colocation-group unioning: members
	// of one group share required, forbidden, the replica cap (group minimum)
	// and separation partners.
	attrRequired  [][]int32 // sorted site lists
	attrForbidden [][]int32 // sorted site lists
	attrMax       []int32   // unlimitedReplicas when uncapped
	colocGroup    []int32   // -1 when the attribute is not colocated
	colocGroups   [][]int32 // member attribute ids per group, sorted
	sepPartners   [][]int32 // sorted partner attribute ids per attribute

	siteCap []int64 // per site, -1 = unlimited; len = maxSite+1 (or 0)
	hasCap  bool

	// tables memoises the site-count-flattened ConstraintTables: the SA
	// solver and the Evaluator both flatten the same set for the same site
	// count, often concurrently (portfolio children, decompose shards).
	tmu    sync.Mutex
	tables map[int]*ConstraintTables
}

// compileConstraints resolves the name-based set against the model. It
// returns an error when a reference does not resolve or the set is
// self-contradictory (pin ∧ forbid on one site, required sites exceeding a
// replica cap, separated attributes that a transaction reads together or
// that are transitively colocated).
func compileConstraints(m *Model, c *Constraints) (*ConstraintSet, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	nA, nT := m.NumAttrs(), m.NumTxns()
	cs := &ConstraintSet{
		src:           c,
		maxSite:       -1,
		txnPin:        make([]int32, nT),
		attrRequired:  make([][]int32, nA),
		attrForbidden: make([][]int32, nA),
		attrMax:       make([]int32, nA),
		colocGroup:    make([]int32, nA),
		sepPartners:   make([][]int32, nA),
	}
	for t := range cs.txnPin {
		cs.txnPin[t] = -1
	}
	for a := range cs.attrMax {
		cs.attrMax[a] = unlimitedReplicas
		cs.colocGroup[a] = -1
	}
	site := func(s int) int {
		if s > cs.maxSite {
			cs.maxSite = s
		}
		return s
	}
	attrID := func(kind string, q QualifiedAttr) (int, error) {
		id, ok := m.AttrID(q)
		if !ok {
			return 0, fmt.Errorf("constraints: %s references unknown attribute %s", kind, q)
		}
		return id, nil
	}

	// Transaction pins.
	for _, p := range c.PinTxns {
		t, ok := m.TxnIndex(p.Txn)
		if !ok {
			return nil, fmt.Errorf("constraints: pin-txn references unknown transaction %q", p.Txn)
		}
		s := int32(site(p.Site))
		if cs.txnPin[t] >= 0 && cs.txnPin[t] != s {
			return nil, fmt.Errorf("constraints: transaction %q pinned to both site %d and site %d",
				p.Txn, cs.txnPin[t], s)
		}
		cs.txnPin[t] = s
	}

	// Colocation groups via union-find over attribute ids.
	parent := make([]int32, nA)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, p := range c.Colocate {
		a, err := attrID("colocate", p.A)
		if err != nil {
			return nil, err
		}
		b, err := attrID("colocate", p.B)
		if err != nil {
			return nil, err
		}
		parent[find(int32(a))] = find(int32(b))
	}
	groupIdx := map[int32]int32{}
	for _, p := range c.Colocate {
		a, _ := m.AttrID(p.A)
		root := find(int32(a))
		gi, ok := groupIdx[root]
		if !ok {
			gi = int32(len(cs.colocGroups))
			groupIdx[root] = gi
			cs.colocGroups = append(cs.colocGroups, nil)
		}
		_ = gi
	}
	for a := 0; a < nA; a++ {
		if gi, ok := groupIdx[find(int32(a))]; ok {
			cs.colocGroup[a] = gi
			cs.colocGroups[gi] = append(cs.colocGroups[gi], int32(a))
		}
	}
	// A group of one (every colocation partner resolved to the same
	// attribute) is no group at all.
	for gi := 0; gi < len(cs.colocGroups); gi++ {
		if len(cs.colocGroups[gi]) == 1 {
			cs.colocGroup[cs.colocGroups[gi][0]] = -1
			cs.colocGroups[gi] = nil
		}
	}

	// groupOrSelf lists the attributes an attribute-level constraint spreads
	// to: the whole colocation group, or just the attribute itself.
	groupOrSelf := func(a int) []int32 {
		if g := cs.colocGroup[a]; g >= 0 {
			return cs.colocGroups[g]
		}
		return []int32{int32(a)}
	}
	addSite := func(list []int32, s int32) []int32 {
		i := sort.Search(len(list), func(i int) bool { return list[i] >= s })
		if i < len(list) && list[i] == s {
			return list
		}
		list = append(list, 0)
		copy(list[i+1:], list[i:])
		list[i] = s
		return list
	}

	for _, p := range c.PinAttrs {
		a, err := attrID("pin-attr", p.Attr)
		if err != nil {
			return nil, err
		}
		for _, ga := range groupOrSelf(a) {
			cs.attrRequired[ga] = addSite(cs.attrRequired[ga], int32(site(p.Site)))
		}
	}
	for _, f := range c.ForbidAttrs {
		a, err := attrID("forbid-attr", f.Attr)
		if err != nil {
			return nil, err
		}
		for _, ga := range groupOrSelf(a) {
			cs.attrForbidden[ga] = addSite(cs.attrForbidden[ga], int32(site(f.Site)))
		}
	}
	for _, mr := range c.MaxReplicas {
		a, err := attrID("max-replicas", mr.Attr)
		if err != nil {
			return nil, err
		}
		for _, ga := range groupOrSelf(a) {
			if int32(mr.K) < cs.attrMax[ga] {
				cs.attrMax[ga] = int32(mr.K)
			}
		}
	}
	for _, p := range c.Separate {
		a, err := attrID("separate", p.A)
		if err != nil {
			return nil, err
		}
		b, err := attrID("separate", p.B)
		if err != nil {
			return nil, err
		}
		if a == b {
			return nil, fmt.Errorf("constraints: separate %s from itself", p.A)
		}
		if cs.colocGroup[a] >= 0 && cs.colocGroup[a] == cs.colocGroup[b] {
			return nil, fmt.Errorf("constraints: %s and %s are both colocated and separated", p.A, p.B)
		}
		for _, ga := range groupOrSelf(a) {
			for _, gb := range groupOrSelf(b) {
				cs.sepPartners[ga] = addSite(cs.sepPartners[ga], gb)
				cs.sepPartners[gb] = addSite(cs.sepPartners[gb], ga)
			}
		}
	}

	// A pinned transaction's read set is required on the pinned site
	// (single-sitedness of reads), so the implication becomes an explicit
	// required entry the O(1) move checks see.
	for t := 0; t < nT; t++ {
		if cs.txnPin[t] < 0 {
			continue
		}
		for _, a := range m.TxnReadAttrs(t) {
			for _, ga := range groupOrSelf(a) {
				cs.attrRequired[ga] = addSite(cs.attrRequired[ga], cs.txnPin[t])
			}
		}
	}

	// Site capacities (duplicates take the tightest bound).
	if len(c.SiteCapacities) > 0 {
		maxCapSite := 0
		for _, sc := range c.SiteCapacities {
			if site(sc.Site) > maxCapSite {
				maxCapSite = sc.Site
			}
		}
		cs.siteCap = make([]int64, maxCapSite+1)
		for i := range cs.siteCap {
			cs.siteCap[i] = -1
		}
		for _, sc := range c.SiteCapacities {
			if cur := cs.siteCap[sc.Site]; cur < 0 || sc.Bytes < cur {
				cs.siteCap[sc.Site] = sc.Bytes
			}
		}
		cs.hasCap = true
	}

	// Conflict detection over the effective per-attribute sets.
	for a := 0; a < nA; a++ {
		for _, rs := range cs.attrRequired[a] {
			if containsSorted(cs.attrForbidden[a], rs) {
				return nil, fmt.Errorf("constraints: attribute %s both required and forbidden on site %d (after colocation and pin propagation)",
					m.Attr(a).Qualified, rs)
			}
		}
		if int32(len(cs.attrRequired[a])) > cs.attrMax[a] {
			return nil, fmt.Errorf("constraints: attribute %s requires %d sites but is capped at %d replicas",
				m.Attr(a).Qualified, len(cs.attrRequired[a]), cs.attrMax[a])
		}
		for _, b := range cs.sepPartners[a] {
			if int(b) < a {
				continue // each pair once
			}
			for _, rs := range cs.attrRequired[a] {
				if containsSorted(cs.attrRequired[b], rs) {
					return nil, fmt.Errorf("constraints: separated attributes %s and %s are both required on site %d",
						m.Attr(a).Qualified, m.Attr(int(b)).Qualified, rs)
				}
			}
		}
	}
	// Separated attributes read by one transaction can never both sit on its
	// primary site, so the pair is unsatisfiable under single-sitedness.
	for t := 0; t < nT; t++ {
		reads := m.TxnReadAttrs(t)
		for _, a := range reads {
			for _, b := range cs.sepPartners[a] {
				if int(b) > a && containsAttr(reads, int(b)) {
					return nil, fmt.Errorf("constraints: transaction %q reads both %s and %s, which are separated",
						m.TxnName(t), m.Attr(a).Qualified, m.Attr(int(b)).Qualified)
				}
			}
		}
	}
	return cs, nil
}

// containsSorted reports whether the ascending list contains v.
//
//vpart:noalloc
func containsSorted(list []int32, v int32) bool {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(list) && list[lo] == v
}

func containsAttr(sorted []int, a int) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= a })
	return i < len(sorted) && sorted[i] == a
}

// Source returns the name-based constraint set the compiled form was built
// from.
func (cs *ConstraintSet) Source() *Constraints {
	if cs == nil {
		return nil
	}
	return cs.src
}

// MaxSite returns the highest site index any constraint references (-1 when
// none does).
func (cs *ConstraintSet) MaxSite() int {
	if cs == nil {
		return -1
	}
	return cs.maxSite
}

// TxnPin returns the pinned site of transaction t, or -1.
func (cs *ConstraintSet) TxnPin(t int) int {
	if cs == nil {
		return -1
	}
	return int(cs.txnPin[t])
}

// Required returns the sorted sites attribute a must be stored on (after
// colocation and transaction-pin propagation). Do not modify.
func (cs *ConstraintSet) Required(a int) []int32 {
	if cs == nil {
		return nil
	}
	return cs.attrRequired[a]
}

// Forbidden returns the sorted sites attribute a must not be stored on. Do
// not modify.
func (cs *ConstraintSet) Forbidden(a int) []int32 {
	if cs == nil {
		return nil
	}
	return cs.attrForbidden[a]
}

// ForbiddenAt reports whether attribute a is forbidden on site s.
func (cs *ConstraintSet) ForbiddenAt(a, s int) bool {
	return containsSorted(cs.Forbidden(a), int32(s))
}

// RequiredAt reports whether attribute a is required on site s.
func (cs *ConstraintSet) RequiredAt(a, s int) bool {
	return containsSorted(cs.Required(a), int32(s))
}

// MaxReplicasOf returns attribute a's effective replica cap (a large value
// when uncapped).
func (cs *ConstraintSet) MaxReplicasOf(a int) int {
	if cs == nil {
		return int(unlimitedReplicas)
	}
	return int(cs.attrMax[a])
}

// ColocGroupOf returns the colocation-group index of attribute a, or -1.
func (cs *ConstraintSet) ColocGroupOf(a int) int {
	if cs == nil {
		return -1
	}
	return int(cs.colocGroup[a])
}

// ColocGroupMembers returns the sorted member attribute ids of group g. Do
// not modify.
func (cs *ConstraintSet) ColocGroupMembers(g int) []int32 { return cs.colocGroups[g] }

// NumColocGroups returns the number of colocation groups (some may be empty
// after degenerate pairs collapsed).
func (cs *ConstraintSet) NumColocGroups() int {
	if cs == nil {
		return 0
	}
	return len(cs.colocGroups)
}

// SeparatedFrom returns the sorted attribute ids attribute a must not share
// a site with. Do not modify.
func (cs *ConstraintSet) SeparatedFrom(a int) []int32 {
	if cs == nil {
		return nil
	}
	return cs.sepPartners[a]
}

// HasCapacities reports whether any site capacity is constrained.
func (cs *ConstraintSet) HasCapacities() bool { return cs != nil && cs.hasCap }

// CapacityOf returns the byte capacity of site s, or -1 when unlimited.
func (cs *ConstraintSet) CapacityOf(s int) int64 {
	if !cs.HasCapacities() || s >= len(cs.siteCap) {
		return -1
	}
	return cs.siteCap[s]
}

// TxnSiteAllowed reports whether transaction t may execute on site s: its
// pin matches and none of its read attributes is forbidden there (a read
// attribute must follow the transaction under single-sitedness).
func (cs *ConstraintSet) TxnSiteAllowed(m *Model, t, s int) bool {
	if cs == nil {
		return true
	}
	if cs.txnPin[t] >= 0 && cs.txnPin[t] != int32(s) {
		return false
	}
	for _, a := range m.TxnReadAttrs(t) {
		if cs.ForbiddenAt(a, s) {
			return false
		}
	}
	return true
}

// validateSites checks the compiled set against a concrete site count:
// every referenced site exists, every attribute keeps at least one allowed
// site, and every transaction keeps at least one allowed primary site.
func (cs *ConstraintSet) validateSites(m *Model, sites int) error {
	if cs.maxSite >= sites {
		return fmt.Errorf("constraints: site %d referenced, solve uses %d site(s)", cs.maxSite, sites)
	}
	for a := 0; a < m.NumAttrs(); a++ {
		if len(cs.attrForbidden[a]) >= sites {
			return fmt.Errorf("constraints: attribute %s is forbidden on all %d site(s)",
				m.Attr(a).Qualified, sites)
		}
	}
	for t := 0; t < m.NumTxns(); t++ {
		ok := false
		for s := 0; s < sites && !ok; s++ {
			ok = cs.TxnSiteAllowed(m, t, s)
		}
		if !ok {
			return fmt.Errorf("constraints: transaction %q has no allowed site (pin and read-attribute forbids conflict)",
				m.TxnName(t))
		}
	}
	return nil
}

// check verifies a partitioning against the compiled set. With partial set,
// only what the partitioning places is judged: transactions and attributes
// beyond its dimensions, transactions on a negative site and attributes
// stored nowhere are skipped — the mode Session.Adopt uses to judge an
// anchor that predates delta-grown dimensions (Carry leaves the grown ones
// unplaced).
func (cs *ConstraintSet) check(m *Model, p *Partitioning, partial bool) error {
	nT, nA := len(p.TxnSite), len(p.AttrSites)
	inTxn := func(t int) bool { return t < nT && (!partial || p.TxnSite[t] >= 0) }
	inAttr := func(a int) bool { return a < nA && (!partial || p.Replicas(a) > 0) }
	if !partial && (nT != m.NumTxns() || nA != m.NumAttrs()) {
		return fmt.Errorf("constraints: partitioning has %d txns × %d attrs, model has %d × %d",
			nT, nA, m.NumTxns(), m.NumAttrs())
	}
	for t := 0; t < m.NumTxns(); t++ {
		if !inTxn(t) {
			continue
		}
		if pin := cs.txnPin[t]; pin >= 0 {
			if int(pin) >= p.Sites {
				return fmt.Errorf("constraints: transaction %q pinned to site %d, partitioning has %d site(s)",
					m.TxnName(t), pin, p.Sites)
			}
			if p.TxnSite[t] != int(pin) {
				return fmt.Errorf("constraints: transaction %q runs on site %d, pinned to site %d",
					m.TxnName(t), p.TxnSite[t], pin)
			}
		}
	}
	for a := 0; a < m.NumAttrs(); a++ {
		if !inAttr(a) {
			continue
		}
		row := p.AttrSites[a]
		for _, s := range cs.attrRequired[a] {
			if int(s) >= p.Sites || !row[s] {
				return fmt.Errorf("constraints: attribute %s is not stored on required site %d",
					m.Attr(a).Qualified, s)
			}
		}
		for _, s := range cs.attrForbidden[a] {
			if int(s) < p.Sites && row[s] {
				return fmt.Errorf("constraints: attribute %s is stored on forbidden site %d",
					m.Attr(a).Qualified, s)
			}
		}
		if cs.attrMax[a] != unlimitedReplicas {
			if r := p.Replicas(a); int32(r) > cs.attrMax[a] {
				return fmt.Errorf("constraints: attribute %s has %d replicas, capped at %d",
					m.Attr(a).Qualified, r, cs.attrMax[a])
			}
		}
		for _, b := range cs.sepPartners[a] {
			if int(b) < a || !inAttr(int(b)) {
				continue
			}
			for s := 0; s < p.Sites; s++ {
				if row[s] && p.AttrSites[b][s] {
					return fmt.Errorf("constraints: separated attributes %s and %s share site %d",
						m.Attr(a).Qualified, m.Attr(int(b)).Qualified, s)
				}
			}
		}
	}
	for _, g := range cs.colocGroups {
		if len(g) == 0 {
			continue
		}
		rep := int(g[0])
		if !inAttr(rep) {
			continue
		}
		for _, b := range g[1:] {
			if !inAttr(int(b)) {
				continue
			}
			for s := 0; s < p.Sites; s++ {
				if p.AttrSites[rep][s] != p.AttrSites[b][s] {
					return fmt.Errorf("constraints: colocated attributes %s and %s differ on site %d",
						m.Attr(rep).Qualified, m.Attr(int(b)).Qualified, s)
				}
			}
		}
	}
	if cs.hasCap {
		for s := 0; s < p.Sites && s < len(cs.siteCap); s++ {
			cap := cs.siteCap[s]
			if cap < 0 {
				continue
			}
			var used int64
			for a := 0; a < min(m.NumAttrs(), nA); a++ {
				if p.AttrSites[a][s] {
					used += int64(m.Attr(a).Width)
				}
			}
			if used > cap {
				return fmt.Errorf("constraints: site %d stores %d bytes, capacity %d", s, used, cap)
			}
		}
	}
	return nil
}

// PlaceAllowedSite picks a site to cover attribute a on, given the current
// occupancy p: the first non-forbidden site, preferring sites free of
// separation partners and — when used (per-site stored bytes) is non-nil —
// sites with capacity headroom for a's width. The preference relaxes in
// passes (sep+cap, sep, cap, any non-forbidden), so a hard-to-satisfy
// attribute is still covered and Validate reports what could not be
// honoured. Returns -1 when every site is forbidden; the nil set picks
// site 0.
func (cs *ConstraintSet) PlaceAllowedSite(m *Model, p *Partitioning, a int, used []int64) int {
	w := int64(m.Attr(a).Width)
	sepFree := func(s int) bool {
		for _, b := range cs.SeparatedFrom(a) {
			if p.AttrSites[b][s] {
				return false
			}
		}
		return true
	}
	capOK := func(s int) bool {
		if used == nil {
			return true
		}
		cap := cs.CapacityOf(s)
		return cap < 0 || used[s]+w <= cap
	}
	for pass := 0; pass < 4; pass++ {
		for s := 0; s < p.Sites; s++ {
			if cs.ForbiddenAt(a, s) {
				continue
			}
			switch pass {
			case 0:
				if !sepFree(s) || !capOK(s) {
					continue
				}
			case 1:
				if !sepFree(s) {
					continue
				}
			case 2:
				if !capOK(s) {
					continue
				}
			}
			return s
		}
	}
	return -1
}

// SiteWidthUsage sums the stored attribute widths per site of p under m —
// the byte-usage vector PlaceAllowedSite judges capacities against.
func SiteWidthUsage(m *Model, p *Partitioning) []int64 {
	used := make([]int64, p.Sites)
	for a := 0; a < m.NumAttrs() && a < len(p.AttrSites); a++ {
		w := int64(m.Attr(a).Width)
		for s, on := range p.AttrSites[a] {
			if on {
				used[s] += w
			}
		}
	}
	return used
}

// ConstraintTables are the compiled set flattened for one concrete site
// count: the per-txn/per-attr allowed-site bitsets and capacity bounds the
// hot loops index in O(1).
type ConstraintTables struct {
	// TxnAllowed[t*sites+s] reports whether transaction t may run on site s.
	TxnAllowed []bool
	// AttrForbidden[a*sites+s] / AttrRequired[a*sites+s] flatten the per-site
	// forbid/require sets.
	AttrForbidden []bool
	AttrRequired  []bool
	// SiteCap[s] is the byte capacity of site s (-1 = unlimited); HasCap
	// reports whether any site is capped.
	SiteCap []int64
	HasCap  bool
}

// Tables flattens the set for the given site count. The result is memoised
// per site count — callers share it read-only.
func (cs *ConstraintSet) Tables(m *Model, sites int) *ConstraintTables {
	cs.tmu.Lock()
	defer cs.tmu.Unlock()
	if ct, ok := cs.tables[sites]; ok {
		return ct
	}
	ct := cs.buildTables(m, sites)
	if cs.tables == nil {
		cs.tables = make(map[int]*ConstraintTables)
	}
	cs.tables[sites] = ct
	return ct
}

// buildTables is the uncached flattening behind Tables.
func (cs *ConstraintSet) buildTables(m *Model, sites int) *ConstraintTables {
	nA, nT := m.NumAttrs(), m.NumTxns()
	ct := &ConstraintTables{
		TxnAllowed:    make([]bool, nT*sites),
		AttrForbidden: make([]bool, nA*sites),
		AttrRequired:  make([]bool, nA*sites),
		SiteCap:       make([]int64, sites),
		HasCap:        cs.hasCap,
	}
	for a := 0; a < nA; a++ {
		for _, s := range cs.attrForbidden[a] {
			if int(s) < sites {
				ct.AttrForbidden[a*sites+int(s)] = true
			}
		}
		for _, s := range cs.attrRequired[a] {
			if int(s) < sites {
				ct.AttrRequired[a*sites+int(s)] = true
			}
		}
	}
	for t := 0; t < nT; t++ {
		for s := 0; s < sites; s++ {
			ct.TxnAllowed[t*sites+s] = cs.TxnSiteAllowed(m, t, s)
		}
	}
	for s := 0; s < sites; s++ {
		ct.SiteCap[s] = cs.CapacityOf(s)
	}
	return ct
}

// SeparatePairs returns each separation pair once, as sorted (a, b)
// attribute-id tuples with a < b (pairs expanded across colocation groups).
func (cs *ConstraintSet) SeparatePairs() [][2]int {
	if cs == nil {
		return nil
	}
	var out [][2]int
	for a := range cs.sepPartners {
		for _, b := range cs.sepPartners[a] {
			if int(b) > a {
				out = append(out, [2]int{a, int(b)})
			}
		}
	}
	return out
}

// MarshalJSON renders a qualified attribute as its "Table.Attr" string, the
// form constraint files and assignments use.
func (q QualifiedAttr) MarshalJSON() ([]byte, error) {
	return json.Marshal(q.String())
}

// UnmarshalJSON parses "Table.Attr" (or the legacy object form).
func (q *QualifiedAttr) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		qa, err := ParseQualifiedAttr(s)
		if err != nil {
			return err
		}
		*q = qa
		return nil
	}
	var obj struct {
		Table string `json:"table"`
		Attr  string `json:"attr"`
	}
	if err := json.Unmarshal(data, &obj); err != nil {
		return fmt.Errorf("invalid qualified attribute %s", string(data))
	}
	if obj.Table == "" || obj.Attr == "" {
		return fmt.Errorf("invalid qualified attribute %s", string(data))
	}
	*q = QualifiedAttr{Table: obj.Table, Attr: obj.Attr}
	return nil
}
