package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// QueryKind distinguishes read queries from write queries (the paper's δ_q).
type QueryKind int

const (
	// Read marks a query that only retrieves data (δ_q = 0).
	Read QueryKind = iota
	// Write marks a query that writes data (δ_q = 1): INSERT, DELETE, or the
	// write half of an UPDATE.
	Write
)

// String returns "read" or "write".
func (k QueryKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("QueryKind(%d)", int(k))
	}
}

// TableAccess describes how a single query touches a single table.
type TableAccess struct {
	// Table is the name of the accessed table.
	Table string `json:"table"`
	// Attributes are the names of the attributes of Table that the query
	// itself references (the paper's α_{a,q}). For a read query these are the
	// retrieved attributes; for a write query these are the written ones.
	Attributes []string `json:"attributes"`
	// Rows is the average number of rows retrieved from or written to the
	// table by one execution of the query (the paper's n_{r,q}).
	Rows float64 `json:"rows"`
}

// Query is a single read or write query of the workload, together with its
// run-time statistics.
type Query struct {
	Name string    `json:"name"`
	Kind QueryKind `json:"kind"`
	// Frequency is the execution frequency f_q of the query. The TPC-C
	// instance of the paper assumes all queries run with equal frequency 1.
	Frequency float64 `json:"frequency"`
	// Accesses lists every table the query touches.
	Accesses []TableAccess `json:"accesses"`
}

// IsWrite reports whether the query is a write query (δ_q = 1).
func (q *Query) IsWrite() bool { return q.Kind == Write }

// Tables returns the names of all tables accessed by the query.
func (q *Query) Tables() []string {
	ts := make([]string, len(q.Accesses))
	for i, a := range q.Accesses {
		ts[i] = a.Table
	}
	return ts
}

// NewRead constructs a read query that accesses the given attributes of a
// single table and retrieves rows rows per execution at frequency freq.
func NewRead(name, table string, attrs []string, rows, freq float64) Query {
	return Query{
		Name:      name,
		Kind:      Read,
		Frequency: freq,
		Accesses:  []TableAccess{{Table: table, Attributes: attrs, Rows: rows}},
	}
}

// NewWrite constructs a write query (INSERT or DELETE or the write part of an
// UPDATE) that writes the given attributes of a single table.
func NewWrite(name, table string, attrs []string, rows, freq float64) Query {
	return Query{
		Name:      name,
		Kind:      Write,
		Frequency: freq,
		Accesses:  []TableAccess{{Table: table, Attributes: attrs, Rows: rows}},
	}
}

// NewUpdate models an SQL UPDATE statement the way the paper does (§5.2): as
// two sub-queries, a read query accessing every attribute the statement uses
// (predicate columns plus written columns) and a write query accessing only
// the attributes actually written.
func NewUpdate(name, table string, readAttrs, writeAttrs []string, rows, freq float64) []Query {
	all := make([]string, 0, len(readAttrs)+len(writeAttrs))
	seen := make(map[string]bool, len(readAttrs)+len(writeAttrs))
	for _, lists := range [][]string{readAttrs, writeAttrs} {
		for _, a := range lists {
			if !seen[a] {
				seen[a] = true
				all = append(all, a)
			}
		}
	}
	return []Query{
		NewRead(name+".read", table, all, rows, freq),
		NewWrite(name+".write", table, writeAttrs, rows, freq),
	}
}

// Transaction is a named group of queries with a single primary executing
// site.
type Transaction struct {
	Name    string  `json:"name"`
	Queries []Query `json:"queries"`
}

// NumQueries returns the number of queries in the transaction.
func (t *Transaction) NumQueries() int { return len(t.Queries) }

// Workload is the full set of transactions the partitioning is optimised for.
type Workload struct {
	Transactions []Transaction `json:"transactions"`
}

// NumTransactions returns |T|.
func (w *Workload) NumTransactions() int { return len(w.Transactions) }

// NumQueries returns the total number of queries across all transactions.
func (w *Workload) NumQueries() int {
	n := 0
	for _, t := range w.Transactions {
		n += len(t.Queries)
	}
	return n
}

// Validate checks structural well-formedness of the workload against the
// schema: unique transaction names, non-empty transactions, unique query
// names within a transaction, queries with positive, finite frequency,
// accesses referring to existing tables/attributes, positive, finite row
// counts and no duplicate table access within one query. Names resolve
// through indices built once per call, so validating a query allocates
// nothing.
func (w *Workload) Validate(s *Schema) error { return w.validate(s, nil) }

// A queryVisitor receives each query of a workload as soon as validation has
// accepted it, with the names validation resolved: txn is the index of the
// query's transaction, tables[i] the schema index of the table of
// q.Accesses[i], and attrs the indices within their tables of the accesses'
// attributes, flattened in access order. Both slices are reused for the next
// query. The model compile is the one visitor; it reads the resolution
// instead of looking every name up again.
type queryVisitor func(txn int, q *Query, tables, attrs []int)

// validate is Validate handing each accepted query to visit, unless visit is
// nil.
func (w *Workload) validate(s *Schema, visit queryVisitor) error {
	if len(w.Transactions) == 0 {
		return fmt.Errorf("workload: no transactions")
	}
	qc := newQueryChecker(s)
	var res *resolution
	if visit != nil {
		res = &resolution{}
	}
	seenTxn := make(map[string]bool, len(w.Transactions))
	// order is the scratch uniqueQueryNames sorts a transaction's query
	// positions in; sized for the widest transaction, it is allocated once
	// per call.
	widest := 0
	for ti := range w.Transactions {
		widest = max(widest, len(w.Transactions[ti].Queries))
	}
	order := make([]int, widest)
	for ti := range w.Transactions {
		txn := &w.Transactions[ti]
		if txn.Name == "" {
			return fmt.Errorf("workload: transaction with empty name")
		}
		if seenTxn[txn.Name] {
			return fmt.Errorf("workload: duplicate transaction %q", txn.Name)
		}
		seenTxn[txn.Name] = true
		if len(txn.Queries) == 0 {
			return fmt.Errorf("workload: transaction %q has no queries", txn.Name)
		}
		for qi := range txn.Queries {
			q := &txn.Queries[qi]
			if err := qc.check(txn.Name, q, res); err != nil {
				return err
			}
			if visit != nil {
				visit(ti, q, res.tables, res.attrs)
			}
		}
		if err := uniqueQueryNames(txn, order[:len(txn.Queries)]); err != nil {
			return err
		}
	}
	return nil
}

// uniqueQueryNames fails when two queries of txn share a name, naming the
// first two queries of the smallest such name. Delta ops address a query by
// name and stop at the first match, so a repeated name would hide a query.
// order is scratch of one int per query.
func uniqueQueryNames(txn *Transaction, order []int) error {
	qs := txn.Queries
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := strings.Compare(qs[a].Name, qs[b].Name); c != 0 {
			return c
		}
		return a - b
	})
	for i := 1; i < len(order); i++ {
		if a, b := order[i-1], order[i]; qs[a].Name == qs[b].Name {
			return fmt.Errorf("workload: transaction %q has two queries named %q: query %d (%s) and query %d (%s)",
				txn.Name, qs[a].Name, a+1, qs[a].Kind, b+1, qs[b].Kind)
		}
	}
	return nil
}

// queryChecker validates queries against one schema. Table names resolve
// through an index built with the checker; a table's attribute index is
// built the first time a query accesses the table, so checking one query
// costs time in the widths of the tables it accesses only. A table or
// attribute named twice is caught with stamps instead of per-query sets:
// every query, and every access of a query, draws a fresh stamp.
type queryChecker struct {
	schema    *Schema
	tables    map[string]int
	attrs     []map[string]int // per table; nil until a query accesses it
	tableSeen []int            // per table: stamp of the last query accessing it
	attrSeen  [][]int          // per table and attribute: stamp of the last access naming it
	stamp     int
}

// A resolution holds the names of one checked query resolved, laid out as a
// queryVisitor receives them.
type resolution struct {
	tables, attrs []int
}

func newQueryChecker(s *Schema) *queryChecker {
	qc := &queryChecker{
		schema:    s,
		tables:    make(map[string]int, len(s.Tables)),
		attrs:     make([]map[string]int, len(s.Tables)),
		tableSeen: make([]int, len(s.Tables)),
		attrSeen:  make([][]int, len(s.Tables)),
	}
	for ti := range s.Tables {
		// The first of two equally named tables wins, as in Schema.Table.
		if _, dup := qc.tables[s.Tables[ti].Name]; !dup {
			qc.tables[s.Tables[ti].Name] = ti
		}
	}
	return qc
}

// attrIndex returns table ti's attribute-name index, building it (and the
// table's stamps) on first use.
func (qc *queryChecker) attrIndex(ti int) map[string]int {
	if idx := qc.attrs[ti]; idx != nil {
		return idx
	}
	attrs := qc.schema.Tables[ti].Attributes
	idx := make(map[string]int, len(attrs))
	for ai := range attrs {
		// The first of two equally named attributes wins, as in
		// Table.Attribute.
		if _, dup := idx[attrs[ai].Name]; !dup {
			idx[attrs[ai].Name] = ai
		}
	}
	qc.attrs[ti] = idx
	qc.attrSeen[ti] = make([]int, len(attrs))
	return idx
}

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// check validates query q of transaction txn and, unless res is nil, leaves
// its resolved names in res.
func (qc *queryChecker) check(txn string, q *Query, res *resolution) error {
	if q.Name == "" {
		return fmt.Errorf("workload: transaction %q has a query with empty name", txn)
	}
	if q.Kind != Read && q.Kind != Write {
		return fmt.Errorf("workload: query %s/%s has invalid kind %d", txn, q.Name, q.Kind)
	}
	if q.Frequency <= 0 {
		return fmt.Errorf("workload: query %s/%s has non-positive frequency %g", txn, q.Name, q.Frequency)
	}
	if !finite(q.Frequency) {
		return fmt.Errorf("workload: query %s/%s has non-finite frequency %g", txn, q.Name, q.Frequency)
	}
	if len(q.Accesses) == 0 {
		return fmt.Errorf("workload: query %s/%s accesses no tables", txn, q.Name)
	}
	qc.stamp++
	query := qc.stamp
	if res != nil {
		res.tables, res.attrs = res.tables[:0], res.attrs[:0]
	}
	for i := range q.Accesses {
		acc := &q.Accesses[i]
		ti, ok := qc.tables[acc.Table]
		if !ok {
			return fmt.Errorf("workload: query %s/%s references unknown table %q", txn, q.Name, acc.Table)
		}
		if qc.tableSeen[ti] == query {
			return fmt.Errorf("workload: query %s/%s references table %q twice", txn, q.Name, acc.Table)
		}
		qc.tableSeen[ti] = query
		if acc.Rows <= 0 {
			return fmt.Errorf("workload: query %s/%s accesses table %q with non-positive row count %g",
				txn, q.Name, acc.Table, acc.Rows)
		}
		if !finite(acc.Rows) {
			return fmt.Errorf("workload: query %s/%s accesses table %q with non-finite row count %g",
				txn, q.Name, acc.Table, acc.Rows)
		}
		if len(acc.Attributes) == 0 {
			return fmt.Errorf("workload: query %s/%s accesses table %q but references no attributes",
				txn, q.Name, acc.Table)
		}
		idx := qc.attrIndex(ti)
		seen := qc.attrSeen[ti]
		qc.stamp++
		for _, a := range acc.Attributes {
			ai, ok := idx[a]
			if !ok {
				return fmt.Errorf("workload: query %s/%s references unknown attribute %s.%s",
					txn, q.Name, acc.Table, a)
			}
			if seen[ai] == qc.stamp {
				return fmt.Errorf("workload: query %s/%s references attribute %s.%s twice",
					txn, q.Name, acc.Table, a)
			}
			seen[ai] = qc.stamp
			if res != nil {
				res.attrs = append(res.attrs, ai)
			}
		}
		if res != nil {
			res.tables = append(res.tables, ti)
		}
	}
	return nil
}
