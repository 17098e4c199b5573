package core

import (
	"fmt"
)

// Instance bundles a schema and a workload into a single vertical
// partitioning problem instance. This is the serialisable input format of
// every solver in the repository.
type Instance struct {
	// Name identifies the instance ("TPC-C v5", "rndAt8x15", ...).
	Name     string   `json:"name"`
	Schema   Schema   `json:"schema"`
	Workload Workload `json:"workload"`
}

// Validate checks the schema and the workload for structural consistency.
func (in *Instance) Validate() error { return in.validate(nil) }

// validate is Validate handing each accepted query to visit, unless visit is
// nil (see queryVisitor).
func (in *Instance) validate(visit queryVisitor) error {
	if in.Name == "" {
		return fmt.Errorf("instance: empty name")
	}
	if err := in.Schema.Validate(); err != nil {
		return fmt.Errorf("instance %q: %w", in.Name, err)
	}
	if err := in.Workload.validate(&in.Schema, visit); err != nil {
		return fmt.Errorf("instance %q: %w", in.Name, err)
	}
	return nil
}

// Clone returns an independent deep copy of the instance (nil in, nil out).
// Sessions hand out clones wherever a caller could otherwise alias their
// internal instance, which shares untouched structure with the instances
// ApplyDelta built it from.
func (in *Instance) Clone() *Instance {
	if in == nil {
		return nil
	}
	cp := &Instance{Name: in.Name}
	cp.Schema.Tables = make([]Table, len(in.Schema.Tables))
	for i, t := range in.Schema.Tables {
		cp.Schema.Tables[i] = Table{
			Name:       t.Name,
			Attributes: append([]Attribute(nil), t.Attributes...),
		}
	}
	cp.Workload.Transactions = make([]Transaction, len(in.Workload.Transactions))
	for i, tx := range in.Workload.Transactions {
		queries := make([]Query, len(tx.Queries))
		for j, q := range tx.Queries {
			accesses := make([]TableAccess, len(q.Accesses))
			for k, a := range q.Accesses {
				accesses[k] = TableAccess{
					Table:      a.Table,
					Attributes: append([]string(nil), a.Attributes...),
					Rows:       a.Rows,
				}
			}
			q.Accesses = accesses
			queries[j] = q
		}
		cp.Workload.Transactions[i] = Transaction{Name: tx.Name, Queries: queries}
	}
	return cp
}

// NumAttributes returns |A| for the instance.
func (in *Instance) NumAttributes() int { return in.Schema.NumAttributes() }

// NumTransactions returns |T| for the instance.
func (in *Instance) NumTransactions() int { return in.Workload.NumTransactions() }

// NumQueries returns the total number of queries in the workload.
func (in *Instance) NumQueries() int { return in.Workload.NumQueries() }

// Stats summarises the size of an instance; handy for logging and for the
// experiment tables (|A| and |T| columns).
type Stats struct {
	Name         string
	Tables       int
	Attributes   int
	Transactions int
	Queries      int
	WriteQueries int
	TotalWidth   int
}

// Stats computes instance size statistics.
func (in *Instance) Stats() Stats {
	st := Stats{
		Name:         in.Name,
		Tables:       len(in.Schema.Tables),
		Attributes:   in.Schema.NumAttributes(),
		Transactions: in.Workload.NumTransactions(),
		Queries:      in.Workload.NumQueries(),
	}
	for _, t := range in.Schema.Tables {
		st.TotalWidth += t.Width()
	}
	for _, txn := range in.Workload.Transactions {
		for _, q := range txn.Queries {
			if q.IsWrite() {
				st.WriteQueries++
			}
		}
	}
	return st
}

// String renders the statistics on one line.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d tables, |A|=%d, |T|=%d, %d queries (%d writes)",
		s.Name, s.Tables, s.Attributes, s.Transactions, s.Queries, s.WriteQueries)
}
