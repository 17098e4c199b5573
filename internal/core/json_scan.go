package core

import "vpart/internal/jsonscan"

// ScanInstance decodes the instance object at c's position in one pass over
// its bytes, without validating it. It is the fast path of DecodeInstance
// and of vpartd's session-create decoder, which decode the instance in
// place in their input.
//
// It accepts the canonical form EncodeInstance and json.Marshal write: an
// object of the exact lowercase field names, each at most once; strings of
// printable ASCII without escapes; kinds "read" or "write"; widths integer
// literals of at most 18 digits that fit an int; frequencies and rows JSON
// numbers in float64 range; no null. Missing fields stay zero, and an empty
// array decodes to an empty, non-nil slice, as encoding/json decodes them.
// At anything else it reports false, and the caller hands the whole input
// to encoding/json, its fallback and test oracle, so accepted inputs,
// decoded values and error texts are encoding/json's.
//
// The instance owns its memory. Names are interned for the call, so equal
// names share one string and none aliases the input. Every slice has exact
// capacity: the attribute, query, access and attribute-name lists are
// carved from a few shared chunks, so an append to one list copies it
// instead of writing into its neighbour.
func ScanInstance(c *jsonscan.Cursor) (*Instance, bool) {
	sc := instanceScanner{c: c, names: make(jsonscan.Names, namesHint(c.Buf[c.Pos:]))}
	inst := new(Instance)
	var seen uint8
	ok := c.Object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return jsonscan.Once(&seen, 1) && sc.names.Str(c, &inst.Name)
		case "schema":
			return jsonscan.Once(&seen, 2) && sc.schema(&inst.Schema)
		case "workload":
			return jsonscan.Once(&seen, 4) && sc.workload(&inst.Workload)
		}
		return false
	})
	return inst, ok
}

// namesHint sizes the interning table from the length of the text ahead,
// at one distinct name per 512 bytes. Names repeat: attribute names across
// tables, query names across transactions, and the access lists name only
// the schema's tables and attributes. So a count of name keys would
// oversize the table: the first cold benchmark instance (rndAt128x400c8)
// has 568 distinct names among 3,376 name keys, one per 375 bytes of its
// compact form and one per 1,181 of its indented form.
func namesHint(text []byte) int {
	return len(text) / 512
}

// ScanKind reads "read" or "write" into *dst.
func ScanKind(c *jsonscan.Cursor, dst *QueryKind) bool {
	s, ok := c.Str()
	switch {
	case ok && string(s) == "read":
		*dst = Read
	case ok && string(s) == "write":
		*dst = Write
	default:
		return false
	}
	return true
}

// instanceScanner holds ScanInstance's state for one call.
type instanceScanner struct {
	c     *jsonscan.Cursor
	names jsonscan.Names

	// Scratch for the inner lists being decoded, one per element type. A
	// list's elements are appended to its scratch and then carved out with
	// exact capacity; no list holds another of its own type, so a scratch
	// serves one list at a time.
	attrs    []Attribute
	queries  []Query
	accesses []TableAccess
	strs     []string

	// The chunks the inner lists are carved from.
	attrSlab  slab[Attribute]
	querySlab slab[Query]
	accSlab   slab[TableAccess]
	strSlab   slab[string]
}

func (sc *instanceScanner) schema(s *Schema) bool {
	c := sc.c
	var seen uint8
	return c.Object(func(key []byte) bool {
		if string(key) != "tables" || !jsonscan.Once(&seen, 1) {
			return false
		}
		var tables []Table
		ok := c.Array(func() bool {
			var t Table
			ok := sc.table(&t)
			tables = append(tables, t)
			return ok
		})
		s.Tables = exact(tables)
		return ok
	})
}

func (sc *instanceScanner) table(t *Table) bool {
	c := sc.c
	var seen uint8
	return c.Object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return jsonscan.Once(&seen, 1) && sc.names.Str(c, &t.Name)
		case "attributes":
			if !jsonscan.Once(&seen, 2) {
				return false
			}
			sc.attrs = sc.attrs[:0]
			ok := c.Array(func() bool {
				var a Attribute
				ok := sc.attribute(&a)
				sc.attrs = append(sc.attrs, a)
				return ok
			})
			t.Attributes = sc.attrSlab.carve(sc.attrs)
			return ok
		}
		return false
	})
}

func (sc *instanceScanner) attribute(a *Attribute) bool {
	c := sc.c
	var seen uint8
	return c.Object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return jsonscan.Once(&seen, 1) && sc.names.Str(c, &a.Name)
		case "width":
			return jsonscan.Once(&seen, 2) && c.Int(&a.Width)
		}
		return false
	})
}

func (sc *instanceScanner) workload(w *Workload) bool {
	c := sc.c
	var seen uint8
	return c.Object(func(key []byte) bool {
		if string(key) != "transactions" || !jsonscan.Once(&seen, 1) {
			return false
		}
		var txns []Transaction
		ok := c.Array(func() bool {
			var t Transaction
			ok := sc.transaction(&t)
			txns = append(txns, t)
			return ok
		})
		w.Transactions = exact(txns)
		return ok
	})
}

func (sc *instanceScanner) transaction(t *Transaction) bool {
	c := sc.c
	var seen uint8
	return c.Object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return jsonscan.Once(&seen, 1) && sc.names.Str(c, &t.Name)
		case "queries":
			if !jsonscan.Once(&seen, 2) {
				return false
			}
			sc.queries = sc.queries[:0]
			ok := c.Array(func() bool {
				var q Query
				ok := sc.query(&q)
				sc.queries = append(sc.queries, q)
				return ok
			})
			t.Queries = sc.querySlab.carve(sc.queries)
			return ok
		}
		return false
	})
}

func (sc *instanceScanner) query(q *Query) bool {
	c := sc.c
	var seen uint8
	return c.Object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return jsonscan.Once(&seen, 1) && sc.names.Str(c, &q.Name)
		case "kind":
			return jsonscan.Once(&seen, 2) && ScanKind(c, &q.Kind)
		case "frequency":
			return jsonscan.Once(&seen, 4) && c.Number(&q.Frequency)
		case "accesses":
			if !jsonscan.Once(&seen, 8) {
				return false
			}
			sc.accesses = sc.accesses[:0]
			ok := c.Array(func() bool {
				var a TableAccess
				ok := sc.access(&a)
				sc.accesses = append(sc.accesses, a)
				return ok
			})
			q.Accesses = sc.accSlab.carve(sc.accesses)
			return ok
		}
		return false
	})
}

func (sc *instanceScanner) access(a *TableAccess) bool {
	c := sc.c
	var seen uint8
	return c.Object(func(key []byte) bool {
		switch string(key) {
		case "table":
			return jsonscan.Once(&seen, 1) && sc.names.Str(c, &a.Table)
		case "attributes":
			if !jsonscan.Once(&seen, 2) {
				return false
			}
			sc.strs = sc.strs[:0]
			ok := c.Array(func() bool {
				var s string
				ok := sc.names.Str(c, &s)
				sc.strs = append(sc.strs, s)
				return ok
			})
			a.Attributes = sc.strSlab.carve(sc.strs)
			return ok
		case "rows":
			return jsonscan.Once(&seen, 4) && c.Number(&a.Rows)
		}
		return false
	})
}

// exact copies src into a slice of exactly its length and capacity. Like
// encoding/json, it returns a non-nil slice for an empty array.
func exact[T any](src []T) []T {
	dst := make([]T, len(src))
	copy(dst, src)
	return dst
}

// slab carves exact-capacity slices from shared chunks, so a decoded
// instance costs a few allocations per element type instead of one per
// list. Chunks double in size, from slabChunk elements up.
type slab[T any] struct {
	free []T // the rest of the current chunk
	next int // the size of the next chunk
}

const slabChunk = 64

// carve copies src into the current chunk and returns the copy, whose
// capacity ends at its length. An empty src gives an empty, non-nil slice.
func (s *slab[T]) carve(src []T) []T {
	n := len(src)
	if n == 0 {
		return []T{}
	}
	if len(s.free) < n {
		s.next = max(2*s.next, slabChunk)
		s.free = make([]T, max(n, s.next))
	}
	dst := s.free[:n:n]
	s.free = s.free[n:]
	copy(dst, src)
	return dst
}
