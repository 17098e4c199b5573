package core

import (
	"fmt"
)

// Component is one independent sub-instance of a Decomposition: a set of
// tables and transactions of the source instance that share no cost term with
// the rest of the workload.
type Component struct {
	// Instance is the component as a standalone, solvable instance. Its
	// tables and transactions appear in the same relative order as in the
	// source instance, so a model compiled from it numbers them consistently
	// with Tables/Txns/Attrs below.
	Instance *Instance
	// Tables are the source-instance table indices of the component,
	// ascending.
	Tables []int
	// Txns are the source-instance transaction indices of the component,
	// ascending.
	Txns []int
	// Attrs are the source-instance global attribute ids of the component in
	// shard-model order: Attrs[i] is the source id of the shard model's
	// attribute i (global ids follow the table/attribute declaration order,
	// exactly as Model numbers them).
	Attrs []int
}

// Decomposition is the result of the preprocessing pipeline of Decompose:
// the optional reasonable-cuts grouping followed by the split of the
// (grouped) instance into the connected components of its access graph.
//
// Two tables are connected when some transaction accesses both; a
// transaction is connected to every table its queries access. Components of
// this graph share no term of objective (4) — every coefficient of the
// Section 2 model (read/write access, transfer, per-site work, latency) is a
// sum over (query, table) accesses, and the β terms couple a query to all
// attributes of an accessed table but never beyond it — so merging per-shard
// solutions is exact: every cost of the merged partitioning is reproduced
// bit for bit, and the additive terms are the sums of the shard terms.
//
// Note the one caveat for optimality (not for cost accounting): the
// load-balancing term of objective (6), (1−λ)·max-site-work, couples the
// components through the shared sites, so independently optimal shards need
// not compose into the optimum of (6) when λ < 1. The merged cost itself is
// still exact — MergeSolutions evaluates the merged partitioning under the
// full model, max-site-work included.
type Decomposition struct {
	// Original is the instance Decompose was called with.
	Original *Instance
	// Grouping is the reasonable-cuts grouping applied before splitting; nil
	// when grouping was disabled.
	Grouping *Grouping
	// Source is the instance that was split: Grouping.Grouped when grouping
	// ran, Original otherwise.
	Source *Instance
	// Components are the independent sub-instances, ordered by their first
	// table's index in the source schema. Every transaction belongs to
	// exactly one component.
	Components []Component
	// OrphanTables are the source-instance table indices no query accesses.
	// They form cost-free components of their own and are not solved; Merge
	// places their attributes on site 0, which contributes exactly zero under
	// every accounting mode.
	OrphanTables []int
	// OrphanAttrs are the source-instance global attribute ids of the orphan
	// tables.
	OrphanAttrs []int
	// Constraints is the name-based placement-constraint set the
	// decomposition was computed under (over Source's names), nil when
	// unconstrained. Cross-component constraints shape the split: a Colocate
	// or Separate pair welds the two attributes' components together, and any
	// SiteCapacity welds every component into one shard (the capacity budget
	// is shared by all attributes).
	Constraints *Constraints
	// ShardConstraints[i] is the subset of Constraints whose references fall
	// inside component i, the set each shard model is compiled with. nil
	// entries mean the shard is unconstrained.
	ShardConstraints []*Constraints
}

// Decompose splits an instance into independently solvable sub-instances:
// when group is true it first applies the reasonable-cuts grouping of
// Section 4 (GroupAttributes), then it computes the connected components of
// the table–transaction access graph of the (grouped) instance. Solving
// every component separately and merging the results with MergeSolutions is
// cost-exact: the merged cost breakdown equals the source model's evaluation
// of the merged partitioning (see the Decomposition note on the
// load-balancing term for the optimality caveat).
func Decompose(inst *Instance, group bool) (*Decomposition, error) {
	return DecomposeConstrained(inst, group, nil)
}

// DecomposeConstrained is Decompose under a placement-constraint set: the
// grouping becomes constraint-profile aware (GroupAttributesConstrained),
// cross-component Colocate/Separate pairs force the two attributes'
// components into one shard, any SiteCapacity forces every component into a
// single shard (all attributes share the budget), and each component gets
// the projection of the set onto its names (Decomposition.ShardConstraints).
// A nil or empty set decomposes exactly like Decompose.
func DecomposeConstrained(inst *Instance, group bool, cons *Constraints) (*Decomposition, error) {
	if cons.Empty() {
		cons = nil
	}
	d := &Decomposition{Original: inst, Source: inst}
	if group {
		// The grouping compiles inst, which validates it.
		g, err := GroupAttributesConstrained(inst, cons)
		if err != nil {
			return nil, err
		}
		d.Grouping = g
		d.Source = g.Grouped
		if cons != nil {
			cons, err = g.MapConstraints(cons)
			if err != nil {
				return nil, err
			}
		}
	} else if err := inst.Validate(); err != nil {
		return nil, err
	}
	if err := d.split(cons); err != nil {
		return nil, err
	}
	return d, nil
}

// DecomposeModel splits the instance of a compiled model into the connected
// components of its access graph under the model's constraint set
// (m.SourceConstraints(), nil when unconstrained), without grouping: the
// entry point of a solve whose model is already grouped. The compile
// validated the instance, so DecomposeModel does not validate it again.
func DecomposeModel(m *Model) (*Decomposition, error) {
	d := &Decomposition{Original: m.Instance(), Source: m.Instance()}
	if err := d.split(m.SourceConstraints()); err != nil {
		return nil, err
	}
	return d, nil
}

// split fills d's components, orphans and per-shard constraint sets from
// d.Source under cons, a set over Source's names. Source must be valid;
// every component is a sub-instance of it, so the shards are valid too.
func (d *Decomposition) split(cons *Constraints) error {
	d.Constraints = cons
	src := d.Source

	nTab := len(src.Schema.Tables)
	nTxn := len(src.Workload.Transactions)
	tblIndex := make(map[string]int, nTab)
	for i, t := range src.Schema.Tables {
		tblIndex[t.Name] = i
	}

	// Union-find over tables [0,nTab) and transactions [nTab,nTab+nTxn): a
	// transaction is unioned with every table its queries access.
	parent := make([]int, nTab+nTxn)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for ti, txn := range src.Workload.Transactions {
		for _, q := range txn.Queries {
			for _, acc := range q.Accesses {
				union(nTab+ti, tblIndex[acc.Table])
			}
		}
	}
	if cons != nil {
		// Cross-component constraints couple the placement of otherwise
		// independent components, so the affected components merge into one
		// shard. Colocate/Separate couple the two attributes' tables; a site
		// capacity is one shared budget, coupling everything.
		consTable := func(kind string, q QualifiedAttr) (int, error) {
			ti, ok := tblIndex[q.Table]
			if !ok {
				return 0, fmt.Errorf("decompose: %s constraint references unknown table %q", kind, q.Table)
			}
			return ti, nil
		}
		for _, p := range cons.Colocate {
			ta, err := consTable("colocate", p.A)
			if err != nil {
				return err
			}
			tb, err := consTable("colocate", p.B)
			if err != nil {
				return err
			}
			union(ta, tb)
		}
		for _, p := range cons.Separate {
			ta, err := consTable("separate", p.A)
			if err != nil {
				return err
			}
			tb, err := consTable("separate", p.B)
			if err != nil {
				return err
			}
			union(ta, tb)
		}
		if len(cons.SiteCapacities) > 0 {
			for ti := 1; ti < nTab; ti++ {
				union(0, ti)
			}
		}
	}

	// Global attribute ids of the source instance follow the table/attribute
	// declaration order, exactly as Model.compileCatalogue numbers them.
	attrBase := make([]int, nTab)
	next := 0
	for i, t := range src.Schema.Tables {
		attrBase[i] = next
		next += len(t.Attributes)
	}

	// Group tables and transactions by component root, ordering components by
	// their first table's index. A component always contains at least one
	// table (every query accesses one); a table accessed by no query forms an
	// orphan component without transactions.
	compOf := make(map[int]int) // union-find root -> component index
	type members struct{ tables, txns []int }
	var comps []*members
	for ti := 0; ti < nTab; ti++ {
		root := find(ti)
		ci, ok := compOf[root]
		if !ok {
			ci = len(comps)
			compOf[root] = ci
			comps = append(comps, &members{})
		}
		comps[ci].tables = append(comps[ci].tables, ti)
	}
	for xi := 0; xi < nTxn; xi++ {
		ci := compOf[find(nTab+xi)]
		comps[ci].txns = append(comps[ci].txns, xi)
	}

	var solvable []*members
	for _, c := range comps {
		if len(c.txns) == 0 {
			for _, ti := range c.tables {
				d.OrphanTables = append(d.OrphanTables, ti)
				for ai := range src.Schema.Tables[ti].Attributes {
					d.OrphanAttrs = append(d.OrphanAttrs, attrBase[ti]+ai)
				}
			}
			continue
		}
		solvable = append(solvable, c)
	}

	n := len(solvable)
	for i, c := range solvable {
		comp := Component{Tables: c.tables, Txns: c.txns}
		shard := &Instance{Name: fmt.Sprintf("%s [shard %d/%d]", src.Name, i+1, n)}
		for _, ti := range c.tables {
			shard.Schema.Tables = append(shard.Schema.Tables, src.Schema.Tables[ti])
			for ai := range src.Schema.Tables[ti].Attributes {
				comp.Attrs = append(comp.Attrs, attrBase[ti]+ai)
			}
		}
		for _, xi := range c.txns {
			shard.Workload.Transactions = append(shard.Workload.Transactions, src.Workload.Transactions[xi])
		}
		comp.Instance = shard
		d.Components = append(d.Components, comp)
	}
	if cons != nil {
		d.ShardConstraints = make([]*Constraints, len(d.Components))
		for i := range d.Components {
			d.ShardConstraints[i] = projectConstraints(cons, &d.Components[i], src)
		}
	}
	return nil
}

// projectConstraints restricts a constraint set to the names of one
// component. The decomposition welded the components of every pair
// constraint together and collapsed all components under a site capacity, so
// the projections jointly cover the whole set: nothing crosses a shard
// boundary.
func projectConstraints(cons *Constraints, comp *Component, src *Instance) *Constraints {
	tables := make(map[string]bool, len(comp.Tables))
	for _, ti := range comp.Tables {
		tables[src.Schema.Tables[ti].Name] = true
	}
	txns := make(map[string]bool, len(comp.Txns))
	for _, xi := range comp.Txns {
		txns[src.Workload.Transactions[xi].Name] = true
	}
	out := &Constraints{}
	for _, p := range cons.PinTxns {
		if txns[p.Txn] {
			out.PinTxns = append(out.PinTxns, p)
		}
	}
	for _, p := range cons.PinAttrs {
		if tables[p.Attr.Table] {
			out.PinAttrs = append(out.PinAttrs, p)
		}
	}
	for _, f := range cons.ForbidAttrs {
		if tables[f.Attr.Table] {
			out.ForbidAttrs = append(out.ForbidAttrs, f)
		}
	}
	for _, p := range cons.Colocate {
		if tables[p.A.Table] && tables[p.B.Table] {
			out.Colocate = append(out.Colocate, p)
		}
	}
	for _, p := range cons.Separate {
		if tables[p.A.Table] && tables[p.B.Table] {
			out.Separate = append(out.Separate, p)
		}
	}
	for _, mr := range cons.MaxReplicas {
		if tables[mr.Attr.Table] {
			out.MaxReplicas = append(out.MaxReplicas, mr)
		}
	}
	// A site capacity collapses the decomposition to one shard, which then
	// holds every attribute — the budget projects verbatim.
	out.SiteCapacities = append([]SiteCapacity(nil), cons.SiteCapacities...)
	if out.Empty() {
		return nil
	}
	return out
}

// NumShards returns the number of solvable components.
func (d *Decomposition) NumShards() int { return len(d.Components) }

// ProjectSolution restricts a partitioning of the source instance to
// component i: the inverse of the merge step, used to seed a shard's solver
// from a previous merged incumbent (and to reuse untouched shards outright).
// A feasible source partitioning projects to a feasible shard partitioning —
// a transaction's read attributes all belong to its own component.
func (d *Decomposition) ProjectSolution(i int, p *Partitioning) (*Partitioning, error) {
	if i < 0 || i >= len(d.Components) {
		return nil, fmt.Errorf("decompose: component %d out of range [0,%d)", i, len(d.Components))
	}
	comp := &d.Components[i]
	if len(p.TxnSite) != d.Source.NumTransactions() || len(p.AttrSites) != d.Source.NumAttributes() {
		return nil, fmt.Errorf("decompose: partitioning has %d txns × %d attrs, source has %d × %d",
			len(p.TxnSite), len(p.AttrSites), d.Source.NumTransactions(), d.Source.NumAttributes())
	}
	out := NewPartitioning(len(comp.Txns), len(comp.Attrs), p.Sites)
	for lt, t := range comp.Txns {
		out.TxnSite[lt] = p.TxnSite[t]
	}
	for la, a := range comp.Attrs {
		copy(out.AttrSites[la], p.AttrSites[a])
	}
	return out, nil
}

// MergeSolutions lifts per-shard partitionings back to the source instance
// and prices the merged partitioning. m must be compiled from Source, and
// parts[i] must be a feasible partitioning of Components[i] (all with the
// same site count). Orphan-table attributes are placed on site 0, which adds
// exactly zero cost.
//
// The merge is exact: the returned Cost is the source model's Evaluate of the
// merged partitioning, and because components share no cost term it also
// equals the sum of the per-shard breakdowns (with the per-site work vectors
// added element-wise and the max/objective terms recomputed).
//
// When the decomposition was built with grouping, the merged partitioning is
// expressed over the grouped instance; use Grouping.Expand to map it back to
// Original.
func (d *Decomposition) MergeSolutions(m *Model, parts []*Partitioning) (*Partitioning, Cost, error) {
	if m.Instance() != d.Source {
		return nil, Cost{}, fmt.Errorf("decompose: model was not compiled from this decomposition's source instance")
	}
	if len(parts) != len(d.Components) {
		return nil, Cost{}, fmt.Errorf("decompose: %d shard partitionings for %d components", len(parts), len(d.Components))
	}
	sites := 0
	for i, p := range parts {
		comp := &d.Components[i]
		if p == nil {
			return nil, Cost{}, fmt.Errorf("decompose: shard %d has no partitioning", i)
		}
		if len(p.TxnSite) != len(comp.Txns) || len(p.AttrSites) != len(comp.Attrs) {
			return nil, Cost{}, fmt.Errorf("decompose: shard %d partitioning has %d txns × %d attrs, component has %d × %d",
				i, len(p.TxnSite), len(p.AttrSites), len(comp.Txns), len(comp.Attrs))
		}
		if i == 0 {
			sites = p.Sites
		} else if p.Sites != sites {
			return nil, Cost{}, fmt.Errorf("decompose: shard %d uses %d sites, shard 0 uses %d", i, p.Sites, sites)
		}
	}
	if sites < 1 {
		return nil, Cost{}, fmt.Errorf("decompose: no shards to merge")
	}

	merged := NewPartitioning(d.Source.NumTransactions(), d.Source.NumAttributes(), sites)
	for i, p := range parts {
		comp := &d.Components[i]
		for lt, site := range p.TxnSite {
			merged.TxnSite[comp.Txns[lt]] = site
		}
		for la, row := range p.AttrSites {
			copy(merged.AttrSites[comp.Attrs[la]], row)
		}
	}
	cs := m.Constraints()
	var used []int64
	if cs.HasCapacities() {
		used = SiteWidthUsage(m, merged)
	}
	for _, a := range d.OrphanAttrs {
		// Orphan-table attributes carry no cost term, but they may still be
		// constrained: honour required sites, avoid forbidden ones, and keep
		// separations and capacity headroom intact where possible. Without
		// constraints that is site 0.
		placed := false
		for _, s := range cs.Required(a) {
			if int(s) < sites {
				merged.AttrSites[a][s] = true
				if used != nil {
					used[s] += int64(m.Attr(a).Width)
				}
				placed = true
			}
		}
		if !placed {
			s := cs.PlaceAllowedSite(m, merged, a, used)
			if s < 0 {
				return nil, Cost{}, fmt.Errorf("decompose: orphan attribute %s has no allowed site", m.Attr(a).Qualified)
			}
			merged.AttrSites[a][s] = true
			if used != nil {
				used[s] += int64(m.Attr(a).Width)
			}
		}
	}
	if err := merged.Validate(m); err != nil {
		return nil, Cost{}, fmt.Errorf("decompose: merged partitioning is infeasible: %w", err)
	}
	return merged, m.Evaluate(merged), nil
}
