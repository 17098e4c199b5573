package core

import (
	"fmt"
	"slices"
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
	a := newDeltaApply(inst)
	for _, op := range d.Ops {
		accs, err := a.apply(op)
		if err != nil {
			return nil, err
		}
		if ds != nil {
			ds.mark(op, accs)
		}
	}
	return a.out, nil
}

// mark marks the table and transaction names op touched; accs are the
// accesses of the query op added, removed or scaled.
func (s *DirtySet) mark(op DeltaOp, accs []TableAccess) {
	switch op := op.(type) {
	case AddQuery:
		s.Txns[op.Txn] = true
	case RemoveQuery:
		s.Txns[op.Txn] = true
	case ScaleFreq:
		s.Txns[op.Txn] = true
	case AddAttr:
		s.Tables[op.Table] = true
	}
	for i := range accs {
		s.Tables[accs[i].Table] = true
	}
}

// deltaApply applies a delta's ops to one private copy of an instance. The
// header and the transaction slice are copied once. A transaction's query
// slice, the table slice and a table's attribute slice are copied by the
// first op that edits them, and later ops edit those copies in place.
// Everything else stays shared with the input, which is never written.
type deltaApply struct {
	out  *Instance
	txns map[string]int // transaction name -> index in out
	// ownQueries[t] and ownAttrs[t] report whether out owns the query slice
	// of transaction t and the attribute slice of table t. ownAttrs stays
	// nil, and out shares the input's table slice, until the first AddAttr.
	ownQueries []bool
	ownAttrs   []bool
	// qc checks the AddQuery ops; nil until the first one and after an
	// AddAttr, which changes what a table's attribute names resolve to.
	qc *queryChecker
}

func newDeltaApply(inst *Instance) *deltaApply {
	out := *inst
	txns := slices.Clone(inst.Workload.Transactions)
	out.Workload.Transactions = txns
	a := &deltaApply{
		out:        &out,
		txns:       make(map[string]int, len(txns)),
		ownQueries: make([]bool, len(txns)),
	}
	for ti := range txns {
		// The first of two equally named transactions wins, as in a scan.
		if _, dup := a.txns[txns[ti].Name]; !dup {
			a.txns[txns[ti].Name] = ti
		}
	}
	return a
}

// apply applies one op to a.out and returns the accesses of the query it
// added, removed or scaled. Its errors name the op.
func (a *deltaApply) apply(op DeltaOp) (accs []TableAccess, err error) {
	switch o := op.(type) {
	case AddQuery:
		accs, err = a.addQuery(o)
	case RemoveQuery:
		accs, err = a.removeQuery(o)
	case ScaleFreq:
		accs, err = a.scaleFreq(o)
	case AddAttr:
		err = a.addAttr(o)
	default:
		return nil, fmt.Errorf("delta: unknown op type %T", op)
	}
	if err != nil {
		return nil, fmt.Errorf("delta %s: %w", op, err)
	}
	return accs, nil
}

// queryIndex returns the index of the query named name in qs, or -1.
func queryIndex(qs []Query, name string) int {
	for i := range qs {
		if qs[i].Name == name {
			return i
		}
	}
	return -1
}

// find returns the indices in a.out of transaction txn and of its query
// named query.
func (a *deltaApply) find(txn, query string) (ti, qi int, err error) {
	ti, ok := a.txns[txn]
	if !ok {
		return 0, 0, fmt.Errorf("workload has no transaction %q", txn)
	}
	if qi = queryIndex(a.out.Workload.Transactions[ti].Queries, query); qi < 0 {
		return 0, 0, fmt.Errorf("transaction %q has no query %q", txn, query)
	}
	return ti, qi, nil
}

// queries returns transaction ti of a.out, copying its query slice, with
// room for one more query, on the first edit.
func (a *deltaApply) queries(ti int) *Transaction {
	tx := &a.out.Workload.Transactions[ti]
	if !a.ownQueries[ti] {
		tx.Queries = append(make([]Query, 0, len(tx.Queries)+1), tx.Queries...)
		a.ownQueries[ti] = true
	}
	return tx
}

func (a *deltaApply) addQuery(op AddQuery) ([]TableAccess, error) {
	if op.Txn == "" {
		return nil, fmt.Errorf("empty transaction name")
	}
	if a.qc == nil {
		a.qc = newQueryChecker(&a.out.Schema)
	}
	if err := a.qc.check(op.Txn, &op.Query, nil); err != nil {
		return nil, err
	}
	ti, ok := a.txns[op.Txn]
	if !ok {
		// New transaction, appended at the end of the workload.
		a.txns[op.Txn] = len(a.out.Workload.Transactions)
		a.ownQueries = append(a.ownQueries, true)
		a.out.Workload.Transactions = append(a.out.Workload.Transactions, Transaction{
			Name:    op.Txn,
			Queries: []Query{op.Query},
		})
		return op.Query.Accesses, nil
	}
	if queryIndex(a.out.Workload.Transactions[ti].Queries, op.Query.Name) >= 0 {
		return nil, fmt.Errorf("transaction %q already has a query %q", op.Txn, op.Query.Name)
	}
	tx := a.queries(ti)
	tx.Queries = append(tx.Queries, op.Query)
	return op.Query.Accesses, nil
}

func (a *deltaApply) removeQuery(op RemoveQuery) ([]TableAccess, error) {
	ti, qi, err := a.find(op.Txn, op.Query)
	if err != nil {
		return nil, err
	}
	if len(a.out.Workload.Transactions[ti].Queries) == 1 {
		return nil, fmt.Errorf("cannot remove the last query of transaction %q (scale its frequency down instead)", op.Txn)
	}
	tx := a.queries(ti)
	accs := tx.Queries[qi].Accesses
	tx.Queries = slices.Delete(tx.Queries, qi, qi+1)
	return accs, nil
}

func (a *deltaApply) scaleFreq(op ScaleFreq) ([]TableAccess, error) {
	if op.Factor <= 0 {
		return nil, fmt.Errorf("non-positive factor")
	}
	if !finite(op.Factor) {
		return nil, fmt.Errorf("non-finite factor")
	}
	ti, qi, err := a.find(op.Txn, op.Query)
	if err != nil {
		return nil, err
	}
	f := a.out.Workload.Transactions[ti].Queries[qi].Frequency * op.Factor
	if f <= 0 {
		return nil, fmt.Errorf("scaled frequency %g is not positive", f)
	}
	if !finite(f) {
		return nil, fmt.Errorf("scaled frequency %g is not finite", f)
	}
	q := &a.queries(ti).Queries[qi]
	q.Frequency = f
	return q.Accesses, nil
}

func (a *deltaApply) addAttr(op AddAttr) error {
	if op.Attr.Name == "" {
		return fmt.Errorf("empty attribute name")
	}
	if op.Attr.Width <= 0 {
		return fmt.Errorf("non-positive width %d", op.Attr.Width)
	}
	tables := a.out.Schema.Tables
	ti := slices.IndexFunc(tables, func(t Table) bool { return t.Name == op.Table })
	if ti < 0 {
		return fmt.Errorf("schema has no table %q", op.Table)
	}
	if _, dup := tables[ti].Attribute(op.Attr.Name); dup {
		return fmt.Errorf("table %q already has an attribute %q", op.Table, op.Attr.Name)
	}
	if a.ownAttrs == nil {
		a.out.Schema.Tables = slices.Clone(tables)
		a.ownAttrs = make([]bool, len(tables))
	}
	tbl := &a.out.Schema.Tables[ti]
	if !a.ownAttrs[ti] {
		tbl.Attributes = append(make([]Attribute, 0, len(tbl.Attributes)+1), tbl.Attributes...)
		a.ownAttrs[ti] = true
	}
	tbl.Attributes = append(tbl.Attributes, op.Attr)
	a.qc = nil
	return nil
}
