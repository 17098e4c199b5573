// Package jsonscan reads JSON texts held in memory in one pass, for the
// wire formats whose inputs mostly arrive in one canonical form: the NDJSON
// event lines and session-create bodies of vpartd, and instance documents.
//
// A decoder built on a Cursor accepts only that canonical form and hands
// everything else to encoding/json, its fallback and test oracle. So the
// Cursor never reports an error: each method reports false at anything it
// does not fully recognise, and the decoder only has to agree with
// encoding/json on the inputs it accepts.
package jsonscan

import (
	"encoding/json"
	"errors"
	"io"
	"strconv"
)

// Cursor walks a JSON text. Each method skips the JSON whitespace before
// the token it reads and reports false at anything non-canonical; after a
// false the position is unspecified.
type Cursor struct {
	Buf []byte // the text
	Pos int    // the offset of the next byte to read
}

// Space skips JSON whitespace.
func (c *Cursor) Space() {
	for c.Pos < len(c.Buf) {
		switch c.Buf[c.Pos] {
		case ' ', '\t', '\r', '\n':
			c.Pos++
		default:
			return
		}
	}
}

// End reports whether only JSON whitespace is left.
func (c *Cursor) End() bool {
	c.Space()
	return c.Pos == len(c.Buf)
}

// eat consumes the byte want if it is the next token.
func (c *Cursor) eat(want byte) bool {
	c.Space()
	if c.Pos < len(c.Buf) && c.Buf[c.Pos] == want {
		c.Pos++
		return true
	}
	return false
}

// Str reads a string of printable ASCII without escapes and returns its
// content, a view of the text.
func (c *Cursor) Str() ([]byte, bool) {
	if !c.eat('"') {
		return nil, false
	}
	for j := c.Pos; j < len(c.Buf); j++ {
		switch ch := c.Buf[j]; {
		case ch == '"':
			s := c.Buf[c.Pos:j]
			c.Pos = j + 1
			return s, true
		case ch < 0x20 || ch > 0x7e || ch == '\\':
			return nil, false
		}
	}
	return nil, false
}

// Number reads a number in the JSON grammar into *dst, converted as
// encoding/json converts it, with strconv.ParseFloat. A number out of
// float64 range is not canonical.
func (c *Cursor) Number(dst *float64) bool {
	c.Space()
	b, i := c.Buf, c.Pos
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
	f, err := strconv.ParseFloat(string(b[c.Pos:i]), 64)
	if err != nil {
		return false
	}
	*dst, c.Pos = f, i
	return true
}

// maxIntDigits bounds the integers Int reads, so that none overflows an
// int64.
const maxIntDigits = 18

// Int reads an integer into *dst: an optional minus sign and at most
// maxIntDigits digits without a leading zero, fraction or exponent, whose
// value fits an int. encoding/json decodes each such literal into an int
// field with the same value, and rejects a fraction or an exponent; a
// longer literal is left to it.
func (c *Cursor) Int(dst *int) bool {
	c.Space()
	b, i := c.Buf, c.Pos
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	from := i
	var n int64
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		n = n*10 + int64(b[i]-'0')
		i++
	}
	switch digits := i - from; {
	case digits == 0 || digits > maxIntDigits || digits > 1 && b[from] == '0':
		return false
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		return false
	}
	if neg {
		n = -n
	}
	if int64(int(n)) != n {
		return false
	}
	*dst, c.Pos = int(n), i
	return true
}

// Object reads an object, calling member with each key to read the value
// after the colon.
func (c *Cursor) Object(member func(key []byte) bool) bool {
	if !c.eat('{') {
		return false
	}
	if c.eat('}') {
		return true
	}
	for {
		key, ok := c.Str()
		if !ok || !c.eat(':') || !member(key) {
			return false
		}
		if !c.eat(',') {
			return c.eat('}')
		}
	}
}

// Array reads an array, calling elem to read each element.
func (c *Cursor) Array(elem func() bool) bool {
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

// Once sets bit in *seen, reporting false if it was already set. A decoder
// marks each key it reads with its own bit: a key that appears twice is not
// canonical, since encoding/json would merge the two values.
func Once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// Names interns the strings one decode reads, keyed by their bytes: each
// distinct string is copied out of the text once, so no decoded string
// aliases the text, and equal strings share their bytes.
type Names map[string]string

// Str reads a string into *dst, interned.
func (n Names) Str(c *Cursor, dst *string) bool {
	s, ok := c.Str()
	if !ok {
		return false
	}
	v, ok := n[string(s)]
	if !ok {
		v = string(s)
		n[v] = v
	}
	*dst = v
	return true
}

// ErrTrailingData is the error Finish reports.
var ErrTrailingData = errors.New("trailing data after JSON value")

// Finish reports ErrTrailingData unless only JSON whitespace follows the
// value dec has just decoded. Every decoder of a whole JSON document calls
// it, since json.Decoder.Decode stops at the end of the first value and
// leaves the rest unread. It reads dec's input to its end or to the next
// token; an error reading the input is returned as it is.
func Finish(dec *json.Decoder) error {
	_, err := dec.Token()
	var syntax *json.SyntaxError
	switch {
	case err == io.EOF:
		return nil
	case err == nil, errors.As(err, &syntax), err == io.ErrUnexpectedEOF:
		return ErrTrailingData
	}
	return err
}
