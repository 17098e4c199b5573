package core

import (
	"fmt"
	"strings"
)

// ReferenceGroupAttributes is the reference for GroupModel and
// GroupAttributesConstrained: the name-based grouping they replaced. It
// validates the instance, builds every attribute's access signature as a
// bit per query keyed by qualified name, and groups a table's attributes by
// the signature's string form plus their constraint profile. Its Grouping
// carries no attribute ids: expand and reduce it with ReferenceExpand and
// ReferenceReduce.
func ReferenceGroupAttributes(inst *Instance, cons *Constraints) (*Grouping, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if cons.Empty() {
		cons = nil
	}
	profile := constraintProfiles(cons)
	identity := cons != nil && len(cons.SiteCapacities) > 0

	type queryRef struct {
		txn, query int
	}
	var queries []queryRef
	for ti := range inst.Workload.Transactions {
		for qi := range inst.Workload.Transactions[ti].Queries {
			queries = append(queries, queryRef{ti, qi})
		}
	}

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
		groupIdx := make(map[string]int)
		for _, a := range tbl.Attributes {
			qa := QualifiedAttr{Table: tbl.Name, Attr: a.Name}
			key := sigKey(signature[qa])
			if identity {
				key = qa.String()
			} else if profile != nil {
				key += "|" + profile[qa]
			}
			if gi, ok := groupIdx[key]; ok {
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
		g.Grouped = inst
		return g, nil
	}

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

// referenceGroupIDs resolves, by name, the group id of every attribute of
// originalModel in groupedModel.
func referenceGroupIDs(g *Grouping, originalModel, groupedModel *Model) ([]int, error) {
	ids := make([]int, originalModel.NumAttrs())
	for a := range ids {
		orig := originalModel.Attr(a).Qualified
		group, ok := g.GroupOf[orig]
		if !ok {
			return nil, fmt.Errorf("grouping: attribute %s has no group", orig)
		}
		gid, ok := groupedModel.AttrID(group)
		if !ok {
			return nil, fmt.Errorf("grouping: group %s missing from grouped model", group)
		}
		ids[a] = gid
	}
	return ids, nil
}

// ReferenceExpand is Grouping.Expand with each attribute's group looked up
// by name, the reference for expanding by id.
func ReferenceExpand(g *Grouping, groupedModel, originalModel *Model, p *Partitioning) (*Partitioning, error) {
	ids, err := referenceGroupIDs(g, originalModel, groupedModel)
	if err != nil {
		return nil, err
	}
	out := NewPartitioning(originalModel.NumTxns(), originalModel.NumAttrs(), p.Sites)
	copy(out.TxnSite, p.TxnSite)
	for a, gid := range ids {
		copy(out.AttrSites[a], p.AttrSites[gid])
	}
	return out, nil
}

// ReferenceReduce is Grouping.Reduce with each attribute's group looked up
// by name, the reference for reducing by id.
func ReferenceReduce(g *Grouping, originalModel, groupedModel *Model, p *Partitioning) (*Partitioning, error) {
	ids, err := referenceGroupIDs(g, originalModel, groupedModel)
	if err != nil {
		return nil, err
	}
	out := NewPartitioning(groupedModel.NumTxns(), groupedModel.NumAttrs(), p.Sites)
	copy(out.TxnSite, p.TxnSite)
	for a, gid := range ids {
		for s, on := range p.AttrSites[a] {
			if on {
				out.AttrSites[gid][s] = true
			}
		}
	}
	return out, nil
}
