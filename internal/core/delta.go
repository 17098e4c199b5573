package core

import (
	"fmt"
	"sort"
)

// A DeltaOp is one edit of a workload (or, for AddAttr, of the schema). The
// interface is sealed; the four concrete types — AddQuery, RemoveQuery,
// ScaleFreq and AddAttr — are the whole online re-partitioning vocabulary:
// together they express every workload drift the serving layer reacts to
// (query mixes appearing, disappearing, shifting frequency; tables growing
// columns).
type DeltaOp interface {
	isDeltaOp()
	// String renders the op for logs and errors.
	String() string
}

// AddQuery appends a query to transaction Txn. When no transaction with that
// name exists, a new transaction is appended to the workload holding just the
// query. The query's name must not collide with an existing query of the
// transaction (names are the handles RemoveQuery and ScaleFreq address).
type AddQuery struct {
	Txn   string
	Query Query
}

// RemoveQuery removes the query named Query from transaction Txn. Removing
// the last query of a transaction is rejected — a workload transaction must
// stay non-empty (drop its queries' frequencies towards zero with ScaleFreq
// instead).
type RemoveQuery struct {
	Txn, Query string
}

// ScaleFreq multiplies the frequency of query Query of transaction Txn by
// Factor (> 0 and finite): the drift primitive for shifting query mixes. The
// scaled frequency must stay positive and finite.
type ScaleFreq struct {
	Txn, Query string
	Factor     float64
}

// AddAttr appends an attribute to existing table Table. The new attribute is
// referenced by no query yet, but it immediately participates in the β terms
// of every query accessing the table (a fraction carries all attributes of
// its table).
type AddAttr struct {
	Table string
	Attr  Attribute
}

func (AddQuery) isDeltaOp()    {}
func (RemoveQuery) isDeltaOp() {}
func (ScaleFreq) isDeltaOp()   {}
func (AddAttr) isDeltaOp()     {}

// String renders the op.
func (o AddQuery) String() string { return fmt.Sprintf("add-query %s/%s", o.Txn, o.Query.Name) }

// String renders the op.
func (o RemoveQuery) String() string { return fmt.Sprintf("remove-query %s/%s", o.Txn, o.Query) }

// String renders the op.
func (o ScaleFreq) String() string {
	return fmt.Sprintf("scale-freq %s/%s ×%g", o.Txn, o.Query, o.Factor)
}

// String renders the op.
func (o AddAttr) String() string { return fmt.Sprintf("add-attr %s.%s", o.Table, o.Attr.Name) }

// WorkloadDelta is an ordered batch of edits turning one instance into the
// next: the unit of workload drift the online re-partitioning layer consumes.
// ApplyDelta (or Touch, which also records what the delta touched) builds
// the next instance; compiling that instance gives the next cost model.
type WorkloadDelta struct {
	Ops []DeltaOp
}

// String summarises the delta.
func (d WorkloadDelta) String() string { return fmt.Sprintf("delta(%d ops)", len(d.Ops)) }

// DirtySet accumulates the table and transaction names a sequence of deltas
// touched. The decompose meta-solver consults it to re-solve only the
// components containing a dirty table or transaction and reuse the previous
// solution for the rest (see Options.WarmDirty in the root package).
type DirtySet struct {
	Tables map[string]bool
	Txns   map[string]bool
}

// NewDirtySet returns an empty dirty set.
func NewDirtySet() *DirtySet {
	return &DirtySet{Tables: map[string]bool{}, Txns: map[string]bool{}}
}

// Empty reports whether nothing is marked dirty.
func (s *DirtySet) Empty() bool { return len(s.Tables) == 0 && len(s.Txns) == 0 }

// Clone returns an independent copy of the set.
func (s *DirtySet) Clone() *DirtySet {
	c := NewDirtySet()
	for t := range s.Tables {
		c.Tables[t] = true
	}
	for t := range s.Txns {
		c.Txns[t] = true
	}
	return c
}

// Touches reports whether any of the given table or transaction names is
// marked dirty.
func (s *DirtySet) Touches(tables, txns []string) bool {
	for _, t := range tables {
		if s.Tables[t] {
			return true
		}
	}
	for _, t := range txns {
		if s.Txns[t] {
			return true
		}
	}
	return false
}

// String renders the set sorted, for logs and tests.
func (s *DirtySet) String() string {
	names := func(m map[string]bool) []string {
		out := make([]string, 0, len(m))
		for n := range m {
			out = append(out, n)
		}
		sort.Strings(out)
		return out
	}
	return fmt.Sprintf("dirty{tables: %v, txns: %v}", names(s.Tables), names(s.Txns))
}

// ApplyDelta returns a new instance with the delta applied, op by op in
// order. The input instance is never mutated; transactions and tables the
// delta does not touch share memory with it, so applying a small delta to a
// large instance is cheap. The result is structurally valid (each op
// validates against the current schema/workload), and dimensions only ever
// grow: query ops may append transactions, AddAttr appends attributes, and
// RemoveQuery refuses to empty a transaction.
func ApplyDelta(inst *Instance, d WorkloadDelta) (*Instance, error) {
	return d.Touch(inst, nil)
}

// Touch is ApplyDelta that also marks in ds, unless ds is nil, every table
// and transaction the delta touches (the removed query of a RemoveQuery op
// is looked up in the instance that op applies to). On error ds may be
// partly marked; mark a scratch clone when that matters.
func (d WorkloadDelta) Touch(inst *Instance, ds *DirtySet) (*Instance, error) {
	if inst == nil {
		return nil, fmt.Errorf("delta: nil instance")
	}
	cur := inst
	for _, op := range d.Ops {
		next, err := applyOp(cur, op)
		if err != nil {
			return nil, err
		}
		if ds != nil {
			ds.mark(cur, op)
		}
		cur = next
	}
	if cur == inst {
		// Empty delta: still hand back a distinct shallow copy so callers can
		// rely on ApplyDelta returning a fresh *Instance identity.
		cp := *inst
		cur = &cp
	}
	return cur, nil
}

// mark marks the table and transaction names op touches. op has just been
// applied to inst without error, so the query it addresses exists there.
func (s *DirtySet) mark(inst *Instance, op DeltaOp) {
	var q *Query
	switch op := op.(type) {
	case AddQuery:
		s.Txns[op.Txn] = true
		q = &op.Query
	case RemoveQuery:
		s.Txns[op.Txn] = true
		q = findQuery(inst, op.Txn, op.Query)
	case ScaleFreq:
		s.Txns[op.Txn] = true
		q = findQuery(inst, op.Txn, op.Query)
	case AddAttr:
		s.Tables[op.Table] = true
	}
	if q != nil {
		for _, acc := range q.Accesses {
			s.Tables[acc.Table] = true
		}
	}
}

// findQuery locates a query by transaction and query name, nil if absent.
func findQuery(inst *Instance, txn, query string) *Query {
	for ti := range inst.Workload.Transactions {
		tx := &inst.Workload.Transactions[ti]
		if tx.Name != txn {
			continue
		}
		for qi := range tx.Queries {
			if tx.Queries[qi].Name == query {
				return &tx.Queries[qi]
			}
		}
		return nil
	}
	return nil
}

// applyOp applies a single op, returning a new instance that shares all
// untouched structure with inst.
func applyOp(inst *Instance, op DeltaOp) (*Instance, error) {
	switch op := op.(type) {
	case AddQuery:
		return applyAddQuery(inst, op)
	case RemoveQuery:
		return applyRemoveQuery(inst, op)
	case ScaleFreq:
		return applyScaleFreq(inst, op)
	case AddAttr:
		return applyAddAttr(inst, op)
	default:
		return nil, fmt.Errorf("delta: unknown op type %T", op)
	}
}

// shallowWorkloadCopy clones the instance and its transaction slice (but not
// the transactions' query slices).
func shallowWorkloadCopy(inst *Instance) *Instance {
	cp := *inst
	cp.Workload.Transactions = append([]Transaction(nil), inst.Workload.Transactions...)
	return &cp
}

func applyAddQuery(inst *Instance, op AddQuery) (*Instance, error) {
	if op.Txn == "" {
		return nil, fmt.Errorf("delta %s: empty transaction name", op)
	}
	if err := newQueryChecker(&inst.Schema).check(op.Txn, &op.Query); err != nil {
		return nil, fmt.Errorf("delta %s: %w", op, err)
	}
	cp := shallowWorkloadCopy(inst)
	for ti := range cp.Workload.Transactions {
		tx := &cp.Workload.Transactions[ti]
		if tx.Name != op.Txn {
			continue
		}
		for _, q := range tx.Queries {
			if q.Name == op.Query.Name {
				return nil, fmt.Errorf("delta %s: transaction %q already has a query %q",
					op, op.Txn, op.Query.Name)
			}
		}
		qs := make([]Query, 0, len(tx.Queries)+1)
		qs = append(qs, tx.Queries...)
		qs = append(qs, op.Query)
		tx.Queries = qs
		return cp, nil
	}
	// New transaction, appended at the end of the workload.
	cp.Workload.Transactions = append(cp.Workload.Transactions, Transaction{
		Name:    op.Txn,
		Queries: []Query{op.Query},
	})
	return cp, nil
}

func applyRemoveQuery(inst *Instance, op RemoveQuery) (*Instance, error) {
	cp := shallowWorkloadCopy(inst)
	for ti := range cp.Workload.Transactions {
		tx := &cp.Workload.Transactions[ti]
		if tx.Name != op.Txn {
			continue
		}
		for qi := range tx.Queries {
			if tx.Queries[qi].Name != op.Query {
				continue
			}
			if len(tx.Queries) == 1 {
				return nil, fmt.Errorf("delta %s: cannot remove the last query of transaction %q (scale its frequency down instead)",
					op, op.Txn)
			}
			qs := make([]Query, 0, len(tx.Queries)-1)
			qs = append(qs, tx.Queries[:qi]...)
			qs = append(qs, tx.Queries[qi+1:]...)
			tx.Queries = qs
			return cp, nil
		}
		return nil, fmt.Errorf("delta %s: transaction %q has no query %q", op, op.Txn, op.Query)
	}
	return nil, fmt.Errorf("delta %s: workload has no transaction %q", op, op.Txn)
}

func applyScaleFreq(inst *Instance, op ScaleFreq) (*Instance, error) {
	if op.Factor <= 0 {
		return nil, fmt.Errorf("delta %s: non-positive factor", op)
	}
	if !finite(op.Factor) {
		return nil, fmt.Errorf("delta %s: non-finite factor", op)
	}
	cp := shallowWorkloadCopy(inst)
	for ti := range cp.Workload.Transactions {
		tx := &cp.Workload.Transactions[ti]
		if tx.Name != op.Txn {
			continue
		}
		for qi := range tx.Queries {
			if tx.Queries[qi].Name != op.Query {
				continue
			}
			qs := append([]Query(nil), tx.Queries...)
			qs[qi].Frequency *= op.Factor
			if qs[qi].Frequency <= 0 {
				return nil, fmt.Errorf("delta %s: scaled frequency %g is not positive", op, qs[qi].Frequency)
			}
			if !finite(qs[qi].Frequency) {
				return nil, fmt.Errorf("delta %s: scaled frequency %g is not finite", op, qs[qi].Frequency)
			}
			tx.Queries = qs
			return cp, nil
		}
		return nil, fmt.Errorf("delta %s: transaction %q has no query %q", op, op.Txn, op.Query)
	}
	return nil, fmt.Errorf("delta %s: workload has no transaction %q", op, op.Txn)
}

func applyAddAttr(inst *Instance, op AddAttr) (*Instance, error) {
	if op.Attr.Name == "" {
		return nil, fmt.Errorf("delta %s: empty attribute name", op)
	}
	if op.Attr.Width <= 0 {
		return nil, fmt.Errorf("delta %s: non-positive width %d", op, op.Attr.Width)
	}
	cp := *inst
	cp.Schema.Tables = append([]Table(nil), inst.Schema.Tables...)
	for ti := range cp.Schema.Tables {
		tbl := &cp.Schema.Tables[ti]
		if tbl.Name != op.Table {
			continue
		}
		for _, a := range tbl.Attributes {
			if a.Name == op.Attr.Name {
				return nil, fmt.Errorf("delta %s: table %q already has an attribute %q",
					op, op.Table, op.Attr.Name)
			}
		}
		attrs := make([]Attribute, 0, len(tbl.Attributes)+1)
		attrs = append(attrs, tbl.Attributes...)
		attrs = append(attrs, op.Attr)
		tbl.Attributes = attrs
		return &cp, nil
	}
	return nil, fmt.Errorf("delta %s: schema has no table %q", op, op.Table)
}
