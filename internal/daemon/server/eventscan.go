package server

import (
	"bytes"
	"hash/maphash"
	"strconv"

	"vpart"
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
	names map[string]string              // interned names, keyed by their bytes
	lists map[string][]vpart.TableAccess // decoded access lists, keyed by their array text

	// Scratch for the list being decoded: its accesses without their
	// attributes, each access's attribute count (-1 when the key is
	// absent), and the attribute names of all its accesses in order.
	accs   []vpart.TableAccess
	counts []int
	attrs  []string
}

func newEventScanner() *eventScanner {
	return &eventScanner{names: map[string]string{}, lists: map[string][]vpart.TableAccess{}}
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
	c := cursor{b: line}
	ok := c.object(func(key []byte) bool {
		switch string(key) {
		case "txn":
			return once(&seen, 1) && sc.name(&c, &ev.Txn)
		case "query":
			return once(&seen, 2) && sc.name(&c, &ev.Query)
		case "kind":
			return once(&seen, 4) && c.kind(&ev.Kind)
		case "accesses":
			return once(&seen, 8) && sc.accesses(&c, &ev.Accesses)
		}
		return false
	})
	return ev, ok && c.i == len(line)
}

// once sets bit in *seen, reporting false if it was already set: a key that
// appears twice is not canonical.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// name reads a string into *dst, interned.
func (sc *eventScanner) name(c *cursor, dst *string) bool {
	s, ok := c.str()
	if !ok {
		return false
	}
	if v, ok := sc.names[string(s)]; ok {
		*dst = v
		return true
	}
	v := string(s)
	sc.names[v] = v
	*dst = v
	return true
}

// accesses reads an access-list array into *dst. A canonical array's extent
// follows from its bytes, so an array that starts with the text of a list
// already decoded is that list. The lookup first guesses that the array runs
// to the line's last ']', as it does when accesses is the last key.
func (sc *eventScanner) accesses(c *cursor, dst *[]vpart.TableAccess) bool {
	c.space()
	start := c.i
	if end := bytes.LastIndexByte(c.b, ']'); end > start {
		if l, ok := sc.lists[string(c.b[start:end+1])]; ok {
			c.i = end + 1
			*dst = l
			return true
		}
	}
	sc.accs, sc.counts, sc.attrs = sc.accs[:0], sc.counts[:0], sc.attrs[:0]
	ok := c.array(func() bool {
		var a vpart.TableAccess
		var seen uint8
		from := len(sc.attrs)
		ok := c.object(func(key []byte) bool {
			switch string(key) {
			case "table":
				return once(&seen, 1) && sc.name(c, &a.Table)
			case "attributes":
				return once(&seen, 2) && c.array(func() bool {
					var s string
					if !sc.name(c, &s) {
						return false
					}
					sc.attrs = append(sc.attrs, s)
					return true
				})
			case "rows":
				return once(&seen, 4) && c.number(&a.Rows)
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
	text := c.b[start:c.i]
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

// cursor walks one line. Each method skips the JSON whitespace before the
// token it reads and reports false at anything non-canonical.
type cursor struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (c *cursor) space() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\r', '\n':
			c.i++
		default:
			return
		}
	}
}

// eat consumes the byte want if it is the next token.
func (c *cursor) eat(want byte) bool {
	c.space()
	if c.i < len(c.b) && c.b[c.i] == want {
		c.i++
		return true
	}
	return false
}

// str reads a string of printable ASCII without escapes and returns its
// content, a view of the line.
func (c *cursor) str() ([]byte, bool) {
	if !c.eat('"') {
		return nil, false
	}
	for j := c.i; j < len(c.b); j++ {
		switch ch := c.b[j]; {
		case ch == '"':
			s := c.b[c.i:j]
			c.i = j + 1
			return s, true
		case ch < 0x20 || ch > 0x7e || ch == '\\':
			return nil, false
		}
	}
	return nil, false
}

// kind reads "read" or "write" into *dst.
func (c *cursor) kind(dst *vpart.QueryKind) bool {
	s, ok := c.str()
	switch {
	case ok && string(s) == "read":
		*dst = vpart.Read
	case ok && string(s) == "write":
		*dst = vpart.Write
	default:
		return false
	}
	return true
}

// number reads a number in the JSON grammar into *dst, converted as
// encoding/json converts it, with strconv.ParseFloat. A number out of
// float64 range is not canonical.
func (c *cursor) number(dst *float64) bool {
	c.space()
	b, i := c.b, c.i
	digits := func() bool {
		from := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(b[c.i:i]), 64)
	if err != nil {
		return false
	}
	*dst, c.i = f, i
	return true
}

// object reads an object, calling member with each key to read the value
// after the colon.
func (c *cursor) object(member func(key []byte) bool) bool {
	if !c.eat('{') {
		return false
	}
	if c.eat('}') {
		return true
	}
	for {
		key, ok := c.str()
		if !ok || !c.eat(':') || !member(key) {
			return false
		}
		if !c.eat(',') {
			return c.eat('}')
		}
	}
}

// array reads an array, calling elem to read each element.
func (c *cursor) array(elem func() bool) bool {
	if !c.eat('[') {
		return false
	}
	if c.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !c.eat(',') {
			return c.eat(']')
		}
	}
}
