package ingest

import (
	"fmt"
	"strings"

	"vpart/internal/core"
)

// Event is one observed query execution. Its shape — the (Txn, Query) name
// pair plus the access list — identifies a distinct query of the workload;
// the stream's per-shape counts become the query frequencies of the folded
// instance. Events are value types: the pipeline never retains an Event's
// slices beyond the call unless the shape is admitted into the top-k, at
// which point the access list is deep-copied (strings are immutable and
// shared).
type Event struct {
	// Txn names the transaction the query belongs to.
	Txn string
	// Query names the query shape within the transaction. Shapes must be
	// named consistently by the event source (a query fingerprint): two
	// events with equal (Txn, Query) are counted as the same shape and the
	// first observed access list wins.
	Query string
	// Kind distinguishes read from write executions.
	Kind core.QueryKind
	// Accesses lists the tables and attributes the query touches, with the
	// observed row counts.
	Accesses []core.TableAccess
}

// Validate checks the event for structural well-formedness (non-empty names,
// no NUL byte in the transaction or query name, at least one access,
// positive rows, non-empty attribute lists). The
// ingestion hot path does not validate — feed trusted generator or
// pre-validated daemon input — but the daemon's HTTP decoder calls this on
// every event.
func (e *Event) Validate() error {
	if e.Txn == "" {
		return fmt.Errorf("ingest: event with empty transaction name")
	}
	if e.Query == "" {
		return fmt.Errorf("ingest: event %s/? with empty query name", e.Txn)
	}
	if strings.IndexByte(e.Txn, 0) >= 0 || strings.IndexByte(e.Query, 0) >= 0 {
		return fmt.Errorf("ingest: event %q/%q has a NUL byte in its name", e.Txn, e.Query)
	}
	if e.Kind != core.Read && e.Kind != core.Write {
		return fmt.Errorf("ingest: event %s/%s has invalid kind %d", e.Txn, e.Query, int(e.Kind))
	}
	if len(e.Accesses) == 0 {
		return fmt.Errorf("ingest: event %s/%s accesses no tables", e.Txn, e.Query)
	}
	for _, acc := range e.Accesses {
		if acc.Table == "" {
			return fmt.Errorf("ingest: event %s/%s accesses a table with empty name", e.Txn, e.Query)
		}
		if len(acc.Attributes) == 0 {
			return fmt.Errorf("ingest: event %s/%s accesses table %q but references no attributes", e.Txn, e.Query, acc.Table)
		}
		for _, a := range acc.Attributes {
			if a == "" {
				return fmt.Errorf("ingest: event %s/%s references an attribute with empty name on table %q", e.Txn, e.Query, acc.Table)
			}
		}
		if !(acc.Rows > 0) {
			return fmt.Errorf("ingest: event %s/%s accesses table %q with non-positive row count %g", e.Txn, e.Query, acc.Table, acc.Rows)
		}
	}
	return nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// shapeKey hashes the shape identity (Txn, Query) with 64-bit FNV-1a over
// the two strings separated by a zero byte. Event.Validate rejects names
// holding a zero byte, so two validated shapes never hash the same bytes.
// The 64-bit key is treated as the shape identity throughout the pipeline;
// at the tracked-shape counts this repository targets (millions) a collision
// has probability ~2⁻⁴⁴ and would merge two shapes' counts, never corrupt
// state.
//
//vpart:noalloc
func shapeKey(txn, query string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(txn); i++ {
		h = (h ^ uint64(txn[i])) * fnvPrime
	}
	h = (h ^ 0) * fnvPrime
	for i := 0; i < len(query); i++ {
		h = (h ^ uint64(query[i])) * fnvPrime
	}
	return h
}

// cloneAccesses deep-copies an access list (slices only; strings are shared).
// Called once per top-k admission, never on the steady-state path.
func cloneAccesses(accs []core.TableAccess) []core.TableAccess {
	out := make([]core.TableAccess, len(accs))
	for i, a := range accs {
		out[i] = core.TableAccess{
			Table:      a.Table,
			Attributes: append([]string(nil), a.Attributes...),
			Rows:       a.Rows,
		}
	}
	return out
}

// accessesBytes estimates the retained heap bytes of a cloned access list
// (slice headers, string headers and string bytes), for state accounting.
func accessesBytes(accs []core.TableAccess) int {
	const sliceHeader, stringHeader = 24, 16
	n := sliceHeader + len(accs)*(stringHeader+sliceHeader+8)
	for _, a := range accs {
		n += len(a.Table)
		for _, at := range a.Attributes {
			n += stringHeader + len(at)
		}
	}
	return n
}
