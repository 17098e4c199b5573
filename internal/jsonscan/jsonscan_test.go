package jsonscan

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestCursorIntMatchesEncodingJSON reads integer literals with Int and with
// encoding/json into an int: whatever Int accepts, encoding/json accepts
// with the same value, and Int leaves the cursor after the literal.
func TestCursorIntMatchesEncodingJSON(t *testing.T) {
	for _, lit := range []string{
		"0", "-0", "7", "-12", " 42", "999999999999999999", "-999999999999999999",
		"1000000000000000000", "99999999999999999999", "01", "-", "", "+1",
		"1.0", "8.0", "1e1", "1E1", "2.5", "x", `"1"`, "null",
	} {
		c := Cursor{Buf: []byte(lit)}
		var got int
		ok := c.Int(&got)
		var want int
		err := json.Unmarshal([]byte(lit), &want)
		switch {
		case ok && err != nil:
			t.Errorf("%q: Int read %d, encoding/json rejects it: %v", lit, got, err)
		case ok && (got != want || c.Pos != len(lit)):
			t.Errorf("%q: Int read %d and stopped at %d, encoding/json reads %d", lit, got, c.Pos, want)
		case !ok && err == nil && isDigits(strings.TrimPrefix(strings.TrimSpace(lit), "-"), maxIntDigits):
			t.Errorf("%q: Int rejects a literal of at most %d digits that encoding/json reads as %d", lit, maxIntDigits, want)
		}
	}
}

// isDigits reports whether s is 1 to n decimal digits.
func isDigits(s string, n int) bool {
	return 0 < len(s) && len(s) <= n && strings.Trim(s, "0123456789") == ""
}

// TestFinishRejectsTrailingData decodes a value followed by each suffix:
// only whitespace may follow it.
func TestFinishRejectsTrailingData(t *testing.T) {
	for _, row := range []struct {
		suffix string
		ok     bool
	}{
		{"", true},
		{" \t\r\n", true},
		{` {"x": 1} junk`, false},
		{"]", false},
		{"}", false},
		{",", false},
		{" x", false},
		{` "open`, false},
		{" tru", false},
		{" 1", false},
		{"{}", false},
	} {
		dec := json.NewDecoder(bytes.NewReader([]byte(`{"a":[1,2]}` + row.suffix)))
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("%q: %v", row.suffix, err)
		}
		switch err := Finish(dec); {
		case row.ok && err != nil:
			t.Errorf("%q: %v", row.suffix, err)
		case !row.ok && err != ErrTrailingData:
			t.Errorf("%q: error %v, want %v", row.suffix, err, ErrTrailingData)
		}
	}
}
