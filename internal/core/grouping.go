package core

import (
	"fmt"
	"sort"
	"strings"
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
// can then solve over the model already compiled from inst.
func GroupAttributesConstrained(inst *Instance, cons *Constraints) (*Grouping, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if cons.Empty() {
		cons = nil
	}
	profile := constraintProfiles(cons)
	identity := cons != nil && len(cons.SiteCapacities) > 0

	// Assign a global index to every query so access signatures can be built.
	type queryRef struct {
		txn, query int
	}
	var queries []queryRef
	for ti := range inst.Workload.Transactions {
		for qi := range inst.Workload.Transactions[ti].Queries {
			queries = append(queries, queryRef{ti, qi})
		}
	}

	// signature[attr] = set of query indices referencing the attribute.
	signature := make(map[QualifiedAttr][]bool)
	for _, tbl := range inst.Schema.Tables {
		for _, a := range tbl.Attributes {
			signature[QualifiedAttr{Table: tbl.Name, Attr: a.Name}] = make([]bool, len(queries))
		}
	}
	for gi, qr := range queries {
		q := &inst.Workload.Transactions[qr.txn].Queries[qr.query]
		for _, acc := range q.Accesses {
			for _, an := range acc.Attributes {
				signature[QualifiedAttr{Table: acc.Table, Attr: an}][gi] = true
			}
		}
	}

	g := &Grouping{
		Original: inst,
		Members:  make(map[QualifiedAttr][]QualifiedAttr),
		GroupOf:  make(map[QualifiedAttr]QualifiedAttr),
	}

	grouped := &Instance{Name: inst.Name + " (grouped)"}
	merged := false
	for _, tbl := range inst.Schema.Tables {
		newTbl := Table{Name: tbl.Name}
		// Group attributes by signature, preserving declaration order of the
		// first member.
		groupIdx := make(map[string]int) // signature key -> index into newTbl.Attributes
		for _, a := range tbl.Attributes {
			qa := QualifiedAttr{Table: tbl.Name, Attr: a.Name}
			key := sigKey(signature[qa])
			if identity {
				key = qa.String() // every attribute is its own group
			} else if profile != nil {
				key += "|" + profile[qa]
			}
			if gi, ok := groupIdx[key]; ok {
				// Extend the existing group.
				merged = true
				newTbl.Attributes[gi].Width += a.Width
				gq := QualifiedAttr{Table: tbl.Name, Attr: newTbl.Attributes[gi].Name}
				g.Members[gq] = append(g.Members[gq], qa)
				g.GroupOf[qa] = gq
				continue
			}
			groupIdx[key] = len(newTbl.Attributes)
			newTbl.Attributes = append(newTbl.Attributes, Attribute{Name: a.Name, Width: a.Width})
			gq := QualifiedAttr{Table: tbl.Name, Attr: a.Name}
			g.Members[gq] = []QualifiedAttr{qa}
			g.GroupOf[qa] = gq
		}
		grouped.Schema.Tables = append(grouped.Schema.Tables, newTbl)
	}
	if !merged {
		// The identity grouping: a rewritten copy of inst would compile to
		// the same model, so inst is its own grouped instance.
		g.Grouped = inst
		return g, nil
	}

	// Rewrite the workload: every referenced attribute is replaced by its
	// group representative (deduplicated per access).
	for _, txn := range inst.Workload.Transactions {
		newTxn := Transaction{Name: txn.Name}
		for _, q := range txn.Queries {
			nq := Query{Name: q.Name, Kind: q.Kind, Frequency: q.Frequency}
			for _, acc := range q.Accesses {
				na := TableAccess{Table: acc.Table, Rows: acc.Rows}
				seen := make(map[string]bool)
				for _, an := range acc.Attributes {
					rep := g.GroupOf[QualifiedAttr{Table: acc.Table, Attr: an}].Attr
					if !seen[rep] {
						seen[rep] = true
						na.Attributes = append(na.Attributes, rep)
					}
				}
				nq.Accesses = append(nq.Accesses, na)
			}
			newTxn.Queries = append(newTxn.Queries, nq)
		}
		grouped.Workload.Transactions = append(grouped.Workload.Transactions, newTxn)
	}

	g.Grouped = grouped
	if err := grouped.Validate(); err != nil {
		return nil, fmt.Errorf("grouping produced an invalid instance: %w", err)
	}
	return g, nil
}

// constraintProfiles renders, for every attribute a constraint references, a
// canonical string of its placement-constraint profile; attributes the set
// never mentions map to "". Attributes group together only when their
// profiles match, so a group's members always carry identical constraints.
// Returns nil for a nil set (the unconstrained fast path).
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

func sigKey(sig []bool) string {
	var b strings.Builder
	b.Grow(len(sig))
	for _, v := range sig {
		if v {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
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
	if groupedModel.Instance() != g.Grouped {
		return nil, fmt.Errorf("grouping: grouped model was not compiled from this grouping")
	}
	if originalModel.Instance() != g.Original {
		return nil, fmt.Errorf("grouping: original model was not compiled from this grouping")
	}
	if len(p.TxnSite) != originalModel.NumTxns() || len(p.AttrSites) != originalModel.NumAttrs() {
		return nil, fmt.Errorf("grouping: partitioning has %d txns × %d attrs, original model has %d × %d",
			len(p.TxnSite), len(p.AttrSites), originalModel.NumTxns(), originalModel.NumAttrs())
	}
	out := NewPartitioning(groupedModel.NumTxns(), groupedModel.NumAttrs(), p.Sites)
	copy(out.TxnSite, p.TxnSite)
	for a := 0; a < originalModel.NumAttrs(); a++ {
		orig := originalModel.Attr(a).Qualified
		group, ok := g.GroupOf[orig]
		if !ok {
			return nil, fmt.Errorf("grouping: attribute %s has no group", orig)
		}
		gid, ok := groupedModel.AttrID(group)
		if !ok {
			return nil, fmt.Errorf("grouping: group %s missing from grouped model", group)
		}
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
	if groupedModel.Instance() != g.Grouped {
		return nil, fmt.Errorf("grouping: grouped model was not compiled from this grouping")
	}
	if originalModel.Instance() != g.Original {
		return nil, fmt.Errorf("grouping: original model was not compiled from this grouping")
	}
	if len(p.TxnSite) != originalModel.NumTxns() {
		return nil, fmt.Errorf("grouping: partitioning has %d transactions, want %d",
			len(p.TxnSite), originalModel.NumTxns())
	}
	out := NewPartitioning(originalModel.NumTxns(), originalModel.NumAttrs(), p.Sites)
	copy(out.TxnSite, p.TxnSite)
	for a := 0; a < originalModel.NumAttrs(); a++ {
		orig := originalModel.Attr(a).Qualified
		group, ok := g.GroupOf[orig]
		if !ok {
			return nil, fmt.Errorf("grouping: attribute %s has no group", orig)
		}
		gid, ok := groupedModel.AttrID(group)
		if !ok {
			return nil, fmt.Errorf("grouping: group %s missing from grouped model", group)
		}
		copy(out.AttrSites[a], p.AttrSites[gid])
	}
	return out, nil
}
