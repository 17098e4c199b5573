package server

import (
	"bytes"
	"hash/maphash"
	"maps"

	"vpart"
	"vpart/internal/core"
	"vpart/internal/jsonscan"
)

// eventScanner decodes the canonical lines of one ParseEventsRequest call
// in a single pass over their bytes. It never reports an error: a line it
// does not fully recognise is left to decodeEventLine, the encoding/json
// reference, so the scanner only has to agree with encoding/json on the
// lines it accepts.
//
// A canonical line is an EventDTO object whose keys are the exact lowercase
// field names, each at most once; whose strings are printable ASCII without
// escapes; whose kind is "read" or "write"; whose rows are JSON numbers in
// float64 range; and which ends at its closing brace. json.Encoder writes
// every EventDTO in this form.
//
// The scanner's tables live for one call. Names are interned: each distinct
// name is copied out of the body once, so no returned string aliases it.
// Access lists are decoded once per distinct array text and shared,
// capacity-clipped, by every event whose accesses array has that text.
// ParseEventsRequest's line table shares whole events on top of this: a
// repeated line gets a copy of its first occurrence's event, so its events
// share only these interned names and clipped lists, and encoding/json's
// lists are clipped the same way before they are shared. The table views
// the body only while the call runs.
type eventScanner struct {
	names jsonscan.Names                 // interned names
	lists map[string][]vpart.TableAccess // decoded access lists, keyed by their array text

	// Scratch for the list being decoded: its accesses without their
	// attributes, each access's attribute count (-1 when the key is
	// absent), and the attribute names of all its accesses in order.
	accs   []vpart.TableAccess
	counts []int
	attrs  []string
}

// newEventScanner sizes the name table for a body of the given line count
// whose lines mostly repeat. Each distinct line brings about one new name,
// and a YCSB body repeats four lines in five (1,806 names in 8,192 lines),
// so the table starts at one name per four lines. A body of distinct lines
// gets reserve once the line table has seen too few repeats.
func newEventScanner(lines int) *eventScanner {
	return &eventScanner{names: make(jsonscan.Names, lines/4), lists: map[string][]vpart.TableAccess{}}
}

// reserve regrows the name table at once for n more names, one per line a
// body of distinct lines has left (8,268 names in 8,192 lines on the
// distinct benchmark row): grown a name at a time, the table spent a sixth
// of the decode time splitting.
func (sc *eventScanner) reserve(n int) {
	names := make(jsonscan.Names, len(sc.names)+n)
	maps.Copy(names, sc.names)
	sc.names = names
}

// lineTable maps each distinct trimmed line of one ParseEventsRequest body
// to the index of the event its first occurrence decoded to. firsts lists
// the distinct lines in the order they first occur, each a view of the body
// rather than a copy. slots is an open-addressing hash table with linear
// probing over firsts. A slot holds no pointer, so the garbage collector
// never scans the slots, and keeps part of its line's hash, so a probe
// compares bytes only when that part matches.
//
// The table stops once a body's own lines show too few repeats to pay for
// hashing and probing each line: after lineTrial probes, as soon as fewer
// than one probe in lineHitRatio has found a repeat. Every later line is
// then decoded as if it were new. The bar is low because repeats grow more
// frequent further into a body: in live-ycsb's flash-crowd bodies about a
// quarter of the first 256 lines repeat, against half of all 8192.
type lineTable struct {
	seed         maphash.Seed
	slots        []lineSlot // nil once the table has stopped
	firsts       []firstLine
	probes, hits int
}

type lineSlot struct {
	tag   uint32 // the high half of the line's hash
	first int32  // 1 + the line's index in firsts; 0 in an empty slot
}

type firstLine struct {
	line []byte
	ev   int // the index of the event the line decoded to
}

const (
	lineTrial    = 256
	lineHitRatio = 8
)

// newLineTable sizes a table for a body of the given line count: a power of
// two of at least 1.5 slots per line, so it stays under two thirds full.
func newLineTable(lines int) *lineTable {
	n := 2
	for n < lines+lines/2 {
		n <<= 1
	}
	return &lineTable{seed: maphash.MakeSeed(), slots: make([]lineSlot, n)}
}

// first reports the index of the event that an earlier occurrence of line
// decoded to. For a line the table has not met, it records that the line
// decodes to event next and reports false; once the table has stopped, it
// reports false and records nothing.
func (t *lineTable) first(line []byte, next int) (int, bool) {
	if t.slots == nil {
		return 0, false
	}
	t.probes++
	if t.probes > lineTrial && t.hits*lineHitRatio < t.probes {
		t.slots, t.firsts = nil, nil
		return 0, false
	}
	h := maphash.Bytes(t.seed, line)
	tag, mask := uint32(h>>32), uint64(len(t.slots)-1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.first == 0 {
			t.firsts = append(t.firsts, firstLine{line: line, ev: next})
			*s = lineSlot{tag: tag, first: int32(len(t.firsts))}
			return 0, false
		}
		if f := &t.firsts[s.first-1]; s.tag == tag && bytes.Equal(f.line, line) {
			t.hits++
			return f.ev, true
		}
	}
}

// event decodes one trimmed line, reporting false if it is not canonical.
func (sc *eventScanner) event(line []byte) (vpart.QueryEvent, bool) {
	var ev vpart.QueryEvent
	var seen uint8
	c := jsonscan.Cursor{Buf: line}
	ok := c.Object(func(key []byte) bool {
		switch string(key) {
		case "txn":
			return jsonscan.Once(&seen, 1) && sc.names.Str(&c, &ev.Txn)
		case "query":
			return jsonscan.Once(&seen, 2) && sc.names.Str(&c, &ev.Query)
		case "kind":
			return jsonscan.Once(&seen, 4) && core.ScanKind(&c, &ev.Kind)
		case "accesses":
			return jsonscan.Once(&seen, 8) && sc.accesses(&c, &ev.Accesses)
		}
		return false
	})
	return ev, ok && c.Pos == len(line)
}

// accesses reads an access-list array into *dst. A canonical array's extent
// follows from its bytes, so an array that starts with the text of a list
// already decoded is that list. The lookup first guesses that the array runs
// to the line's last ']', as it does when accesses is the last key.
func (sc *eventScanner) accesses(c *jsonscan.Cursor, dst *[]vpart.TableAccess) bool {
	c.Space()
	start := c.Pos
	if end := bytes.LastIndexByte(c.Buf, ']'); end > start {
		if l, ok := sc.lists[string(c.Buf[start:end+1])]; ok {
			c.Pos = end + 1
			*dst = l
			return true
		}
	}
	sc.accs, sc.counts, sc.attrs = sc.accs[:0], sc.counts[:0], sc.attrs[:0]
	ok := c.Array(func() bool {
		var a vpart.TableAccess
		var seen uint8
		from := len(sc.attrs)
		ok := c.Object(func(key []byte) bool {
			switch string(key) {
			case "table":
				return jsonscan.Once(&seen, 1) && sc.names.Str(c, &a.Table)
			case "attributes":
				return jsonscan.Once(&seen, 2) && c.Array(func() bool {
					var s string
					if !sc.names.Str(c, &s) {
						return false
					}
					sc.attrs = append(sc.attrs, s)
					return true
				})
			case "rows":
				return jsonscan.Once(&seen, 4) && c.Number(&a.Rows)
			}
			return false
		})
		count := -1
		if seen&2 != 0 {
			count = len(sc.attrs) - from
		}
		sc.accs = append(sc.accs, a)
		sc.counts = append(sc.counts, count)
		return ok
	})
	if !ok {
		return false
	}
	text := c.Buf[start:c.Pos]
	if l, ok := sc.lists[string(text)]; ok {
		*dst = l
		return true
	}
	// Copy the list out of the scratch. Both allocations are exact, so
	// every shared slice is capacity-clipped; make never returns nil, so
	// an empty array stays non-nil as encoding/json decodes it.
	l := make([]vpart.TableAccess, len(sc.accs))
	names := make([]string, len(sc.attrs))
	copy(names, sc.attrs)
	for k, a := range sc.accs {
		if n := sc.counts[k]; n >= 0 {
			a.Attributes, names = names[:n:n], names[n:]
		}
		l[k] = a
	}
	sc.lists[string(text)] = l
	*dst = l
	return true
}
