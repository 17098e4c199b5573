package core

import (
	"fmt"
	"slices"
	"sort"
)

// Grouping is the result of the "reasonable cuts" preprocessing of Section 4:
// attributes of the same table that are referenced by exactly the same set of
// queries are merged into a single atomic attribute group. A partitioning of
// the grouped instance can be expanded back into a partitioning of the
// original instance without changing its cost.
type Grouping struct {
	// Original is the instance the grouping was computed from.
	Original *Instance
	// Grouped is the reduced instance in which every attribute represents a
	// group of original attributes. When no two attributes merge it is
	// Original itself, not a copy; treat it as read-only.
	Grouped *Instance
	// Members maps each grouped attribute to the original attributes it
	// represents.
	Members map[QualifiedAttr][]QualifiedAttr
	// GroupOf maps each original attribute to its group.
	GroupOf map[QualifiedAttr]QualifiedAttr

	// groupID maps each attribute id of a model of Original to the id of its
	// group in a model of Grouped. Both compiles number attributes in
	// declaration order, so Expand and Reduce copy by id.
	groupID []int
}

// GroupAttributes computes the reasonable-cuts grouping of an instance.
// Two attributes of the same table belong to the same group when every query
// of the workload either references both or neither of them. Group widths are
// the sums of the member widths, so the cost model of the grouped instance is
// exactly the cost model of the original instance restricted to solutions
// that never split a group — which is sufficient for optimality (Section 4).
func GroupAttributes(inst *Instance) (*Grouping, error) {
	return GroupAttributesConstrained(inst, nil)
}

// GroupAttributesConstrained is GroupAttributes for a constrained solve:
// attributes only merge when, in addition to sharing their query access
// signature, they carry identical placement-constraint profiles (pins,
// forbids, replica caps, colocation partners, separation partners). A group
// therefore inherits its members' constraints verbatim, and attributes whose
// constraints differ — conflicting pins in particular — split into separate
// groups, so expanding a grouped solution can never violate a per-attribute
// constraint. A nil or empty constraint set groups exactly like
// GroupAttributes. Map the constraint set onto the grouped instance with
// Grouping.MapConstraints before compiling the grouped model.
//
// Under any SiteCapacity constraint no merging happens at all (the identity
// grouping is returned): group widths are the sums of the member widths and
// a grouped solve can never split a group, so any merge can turn a
// capacity-feasible instance infeasible — unlike every other constraint
// kind, byte budgets void the Section 4 optimality argument.
//
// When no two attributes merge, Grouped is inst itself, not a copy; callers
// can then solve over the model already compiled from inst. A caller that
// holds that model calls GroupModel instead.
func GroupAttributesConstrained(inst *Instance, cons *Constraints) (*Grouping, error) {
	m, err := compileNames(inst)
	if err != nil {
		return nil, err
	}
	if g := GroupModel(m, cons); g != nil {
		return g, nil
	}
	return newGrouping(m, nil), nil
}

// GroupModel is GroupAttributesConstrained over a model compiled from the
// instance: it compares the query ids the compile resolved instead of
// names, and it does not validate the instance again. It returns nil when
// no two attributes merge; the solve then runs over m itself.
func GroupModel(m *Model, cons *Constraints) *Grouping {
	if cons.Empty() {
		cons = nil
	}
	if cons != nil && len(cons.SiteCapacities) > 0 {
		return nil
	}
	rep := groupReps(m, constraintProfiles(cons))
	if rep == nil {
		return nil
	}
	return newGrouping(m, rep)
}

// groupReps returns, for every attribute of m, its group's representative:
// the first attribute of its table, in declaration order, that the same
// queries reference and that has the same constraint profile. It returns nil
// when every attribute represents itself.
func groupReps(m *Model, profile map[QualifiedAttr]string) []int {
	nA := len(m.attrs)
	// The ids of the queries referencing attribute a, in query order, are
	// refs[off[a]:off[a+1]]. Validation lets a query access a table once and
	// name an attribute once per access, so no query repeats in a list.
	off := make([]int32, nA+1)
	for qi := range m.queries {
		for _, acc := range m.queries[qi].accesses {
			for _, a := range acc.attrs {
				off[a+1]++
			}
		}
	}
	for a := 0; a < nA; a++ {
		off[a+1] += off[a]
	}
	refs := make([]int32, off[nA])
	for qi := range m.queries {
		for _, acc := range m.queries[qi].accesses {
			for _, a := range acc.attrs {
				refs[off[a]] = int32(qi)
				off[a]++
			}
		}
	}
	// Filling advanced off[a] to where attribute a+1's list starts.
	copy(off[1:], off[:nA])
	off[0] = 0

	// Within a table, attributes with equal lists hash alike. head holds the
	// last representative seen per hash, and prev chains the earlier ones a
	// collision left behind; an entry whose attribute belongs to an earlier
	// table is stale.
	same := func(r, a int) bool {
		return slices.Equal(refs[off[r]:off[r+1]], refs[off[a]:off[a+1]]) &&
			profile[m.attrs[r].Qualified] == profile[m.attrs[a].Qualified]
	}
	rep := make([]int, nA)
	prev := make([]int, nA)
	head := make(map[uint64]int, nA)
	merged := false
	for a := range m.attrs {
		h := uint64(fnvOffset64)
		for _, q := range refs[off[a]:off[a+1]] {
			h = (h ^ uint64(q)) * fnvPrime64
		}
		r, ok := head[h]
		if !ok || m.attrs[r].Table != m.attrs[a].Table {
			r = -1
		}
		first := r
		for r >= 0 && !same(r, a) {
			r = prev[r]
		}
		if r >= 0 {
			rep[a] = r
			merged = true
			continue
		}
		rep[a], prev[a], head[h] = a, first, a
	}
	if !merged {
		return nil
	}
	return rep
}

// FNV-1a parameters of the query-list hash in groupReps.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// newGrouping builds the grouping of m's instance in which every attribute a
// belongs to rep[a]'s group; a nil rep is the identity grouping, whose
// Grouped is the instance itself. Group widths are the sums of the member
// widths, and every access of the grouped workload names the groups of its
// attributes in the order the access first names them.
func newGrouping(m *Model, rep []int) *Grouping {
	inst := m.inst
	nA := len(m.attrs)
	g := &Grouping{
		Original: inst,
		Grouped:  inst,
		Members:  make(map[QualifiedAttr][]QualifiedAttr, nA),
		GroupOf:  make(map[QualifiedAttr]QualifiedAttr, nA),
		groupID:  make([]int, nA),
	}
	if rep == nil {
		for a, info := range m.attrs {
			g.Members[info.Qualified] = []QualifiedAttr{info.Qualified}
			g.GroupOf[info.Qualified] = info.Qualified
			g.groupID[a] = a
		}
		return g
	}

	grouped := &Instance{Name: inst.Name + " (grouped)"}
	grouped.Schema.Tables = make([]Table, len(inst.Schema.Tables))
	groups := 0
	for ti, tbl := range inst.Schema.Tables {
		// A representative precedes its members in declaration order, so
		// its group id is known when a member is reached.
		first := groups
		newTbl := Table{Name: tbl.Name}
		for _, a := range m.tableAttrs[ti] {
			qa, r := m.attrs[a].Qualified, rep[a]
			if r == a {
				g.groupID[a] = groups
				groups++
				newTbl.Attributes = append(newTbl.Attributes, Attribute{Name: qa.Attr, Width: m.attrs[a].Width})
				g.Members[qa] = []QualifiedAttr{qa}
				g.GroupOf[qa] = qa
				continue
			}
			g.groupID[a] = g.groupID[r]
			newTbl.Attributes[g.groupID[r]-first].Width += m.attrs[a].Width
			rq := m.attrs[r].Qualified
			g.Members[rq] = append(g.Members[rq], qa)
			g.GroupOf[qa] = rq
		}
		grouped.Schema.Tables[ti] = newTbl
	}

	// Rewrite the workload: every referenced attribute is replaced by its
	// group representative, each group named once per access.
	seen := make([]int, groups) // per group: stamp of the last access naming it
	stamp := 0
	grouped.Workload.Transactions = make([]Transaction, len(inst.Workload.Transactions))
	for ti, txn := range inst.Workload.Transactions {
		newTxn := Transaction{Name: txn.Name, Queries: make([]Query, len(txn.Queries))}
		for qi, q := range txn.Queries {
			nq := Query{Name: q.Name, Kind: q.Kind, Frequency: q.Frequency, Accesses: make([]TableAccess, len(q.Accesses))}
			for ai, acc := range q.Accesses {
				stamp++
				na := TableAccess{Table: acc.Table, Rows: acc.Rows}
				for _, an := range acc.Attributes {
					a, _ := m.AttrID(QualifiedAttr{Table: acc.Table, Attr: an})
					if gid := g.groupID[a]; seen[gid] != stamp {
						seen[gid] = stamp
						na.Attributes = append(na.Attributes, m.attrs[rep[a]].Qualified.Attr)
					}
				}
				nq.Accesses[ai] = na
			}
			newTxn.Queries[qi] = nq
		}
		grouped.Workload.Transactions[ti] = newTxn
	}
	g.Grouped = grouped
	return g
}

// constraintProfiles renders, for every attribute a constraint references, a
// canonical string of its placement-constraint profile; attributes the set
// never mentions map to "". Attributes group together only when their
// profiles match, so a group's members always carry identical constraints.
// Returns nil for a nil set, under which no attribute carries a profile.
func constraintProfiles(cons *Constraints) map[QualifiedAttr]string {
	if cons == nil {
		return nil
	}
	profile := make(map[QualifiedAttr]string)

	// Colocation roots via union-find over names: partners share a canonical
	// root, so colocated attributes of one table can still group while an
	// outside attribute never joins them.
	colocParent := map[QualifiedAttr]QualifiedAttr{}
	var find func(QualifiedAttr) QualifiedAttr
	find = func(q QualifiedAttr) QualifiedAttr {
		p, ok := colocParent[q]
		if !ok || p == q {
			return q
		}
		root := find(p)
		colocParent[q] = root
		return root
	}
	for _, p := range cons.Colocate {
		ra, rb := find(p.A), find(p.B)
		if ra != rb {
			// Deterministic root: the lexicographically smaller name.
			if rb.String() < ra.String() {
				ra, rb = rb, ra
			}
			colocParent[rb] = ra
		}
	}

	type parts struct {
		pins, forbids, seps []string
		max                 int
		coloc               string
	}
	byAttr := map[QualifiedAttr]*parts{}
	get := func(q QualifiedAttr) *parts {
		p, ok := byAttr[q]
		if !ok {
			p = &parts{max: -1}
			byAttr[q] = p
		}
		return p
	}
	for _, p := range cons.PinAttrs {
		get(p.Attr).pins = append(get(p.Attr).pins, fmt.Sprintf("%d", p.Site))
	}
	for _, f := range cons.ForbidAttrs {
		get(f.Attr).forbids = append(get(f.Attr).forbids, fmt.Sprintf("%d", f.Site))
	}
	for _, mr := range cons.MaxReplicas {
		pp := get(mr.Attr)
		if pp.max < 0 || mr.K < pp.max {
			pp.max = mr.K
		}
	}
	for _, s := range cons.Separate {
		get(s.A).seps = append(get(s.A).seps, s.B.String())
		get(s.B).seps = append(get(s.B).seps, s.A.String())
	}
	for _, p := range cons.Colocate {
		get(p.A).coloc = find(p.A).String()
		get(p.B).coloc = find(p.B).String()
	}
	for qa, pp := range byAttr {
		sort.Strings(pp.pins)
		sort.Strings(pp.forbids)
		sort.Strings(pp.seps)
		profile[qa] = fmt.Sprintf("p%v|f%v|m%d|c%s|s%v", pp.pins, pp.forbids, pp.max, pp.coloc, pp.seps)
	}
	return profile
}

// MapConstraints rewrites a name-based constraint set onto the grouped
// instance: every attribute reference is replaced by its group
// representative and duplicates collapse. The grouping must have been
// computed with GroupAttributesConstrained over the same set, which
// guarantees a group's members share one profile — so the mapping is exact
// (a colocation pair falling inside one group disappears, a separation pair
// never can). Transaction and site references pass through unchanged.
func (g *Grouping) MapConstraints(cons *Constraints) (*Constraints, error) {
	if cons.Empty() {
		return nil, nil
	}
	rep := func(q QualifiedAttr) (QualifiedAttr, error) {
		r, ok := g.GroupOf[q]
		if !ok {
			return QualifiedAttr{}, fmt.Errorf("grouping: constraint references unknown attribute %s", q)
		}
		return r, nil
	}
	out := &Constraints{PinTxns: append([]PinTxn(nil), cons.PinTxns...)}
	seen := map[string]bool{}
	once := func(key string) bool {
		if seen[key] {
			return false
		}
		seen[key] = true
		return true
	}
	for _, p := range cons.PinAttrs {
		r, err := rep(p.Attr)
		if err != nil {
			return nil, err
		}
		if once(fmt.Sprintf("p|%s|%d", r, p.Site)) {
			out.PinAttrs = append(out.PinAttrs, PinAttr{Attr: r, Site: p.Site})
		}
	}
	for _, f := range cons.ForbidAttrs {
		r, err := rep(f.Attr)
		if err != nil {
			return nil, err
		}
		if once(fmt.Sprintf("f|%s|%d", r, f.Site)) {
			out.ForbidAttrs = append(out.ForbidAttrs, ForbidAttr{Attr: r, Site: f.Site})
		}
	}
	for _, p := range cons.Colocate {
		ra, err := rep(p.A)
		if err != nil {
			return nil, err
		}
		rb, err := rep(p.B)
		if err != nil {
			return nil, err
		}
		if ra == rb {
			continue // the grouping already welds them together
		}
		a, b := ra.String(), rb.String()
		if b < a {
			a, b = b, a
		}
		if once("c|" + a + "|" + b) {
			out.Colocate = append(out.Colocate, Colocate{A: ra, B: rb})
		}
	}
	for _, p := range cons.Separate {
		ra, err := rep(p.A)
		if err != nil {
			return nil, err
		}
		rb, err := rep(p.B)
		if err != nil {
			return nil, err
		}
		if ra == rb {
			return nil, fmt.Errorf("grouping: separated attributes %s and %s were merged into one group", p.A, p.B)
		}
		a, b := ra.String(), rb.String()
		if b < a {
			a, b = b, a
		}
		if once("s|" + a + "|" + b) {
			out.Separate = append(out.Separate, Separate{A: ra, B: rb})
		}
	}
	for _, mr := range cons.MaxReplicas {
		r, err := rep(mr.Attr)
		if err != nil {
			return nil, err
		}
		if once(fmt.Sprintf("m|%s|%d", r, mr.K)) {
			out.MaxReplicas = append(out.MaxReplicas, MaxReplicas{Attr: r, K: mr.K})
		}
	}
	out.SiteCapacities = append([]SiteCapacity(nil), cons.SiteCapacities...)
	return out, nil
}

// NumGroups returns the number of attribute groups (|A| of the grouped
// instance).
func (g *Grouping) NumGroups() int { return g.Grouped.NumAttributes() }

// Reduction returns the original and grouped attribute counts.
func (g *Grouping) Reduction() (original, grouped int) {
	return g.Original.NumAttributes(), g.Grouped.NumAttributes()
}

// Reduce is the inverse of Expand: it converts a partitioning of the
// original model into a partitioning of the grouped model. Every group's
// site set is the union of its members' site sets — for a partitioning that
// came out of a grouped solve (all members equal) this is lossless; for an
// arbitrary warm hint it is the tightest grouped layout covering it. The
// result is not repaired; callers seeding a solver should Repair it under the
// grouped model.
func (g *Grouping) Reduce(originalModel, groupedModel *Model, p *Partitioning) (*Partitioning, error) {
	if err := g.checkModels(groupedModel, originalModel); err != nil {
		return nil, err
	}
	if len(p.TxnSite) != originalModel.NumTxns() || len(p.AttrSites) != originalModel.NumAttrs() {
		return nil, fmt.Errorf("grouping: partitioning has %d txns × %d attrs, original model has %d × %d",
			len(p.TxnSite), len(p.AttrSites), originalModel.NumTxns(), originalModel.NumAttrs())
	}
	out := NewPartitioning(groupedModel.NumTxns(), groupedModel.NumAttrs(), p.Sites)
	copy(out.TxnSite, p.TxnSite)
	for a, gid := range g.groupID {
		for s, on := range p.AttrSites[a] {
			if on {
				out.AttrSites[gid][s] = true
			}
		}
	}
	return out, nil
}

// Expand converts a partitioning of the grouped model back into a
// partitioning of the original model: every original attribute inherits the
// site set of its group; transaction placement is copied unchanged.
func (g *Grouping) Expand(groupedModel, originalModel *Model, p *Partitioning) (*Partitioning, error) {
	if err := g.checkModels(groupedModel, originalModel); err != nil {
		return nil, err
	}
	if len(p.TxnSite) != originalModel.NumTxns() || len(p.AttrSites) != groupedModel.NumAttrs() {
		return nil, fmt.Errorf("grouping: partitioning has %d txns × %d attrs, grouped model has %d × %d",
			len(p.TxnSite), len(p.AttrSites), groupedModel.NumTxns(), groupedModel.NumAttrs())
	}
	out := NewPartitioning(originalModel.NumTxns(), originalModel.NumAttrs(), p.Sites)
	copy(out.TxnSite, p.TxnSite)
	for a, gid := range g.groupID {
		copy(out.AttrSites[a], p.AttrSites[gid])
	}
	return out, nil
}

// checkModels fails unless the two models were compiled from the grouping's
// instances, so its attribute ids are theirs.
func (g *Grouping) checkModels(groupedModel, originalModel *Model) error {
	if groupedModel.Instance() != g.Grouped {
		return fmt.Errorf("grouping: grouped model was not compiled from this grouping")
	}
	if originalModel.Instance() != g.Original {
		return fmt.Errorf("grouping: original model was not compiled from this grouping")
	}
	if len(g.groupID) != originalModel.NumAttrs() {
		return fmt.Errorf("grouping: not computed by GroupAttributes or GroupModel")
	}
	return nil
}
