package ingest

import (
	"strings"
	"testing"

	"vpart/internal/core"
)

// TestEventValidate: a NUL byte in the transaction or the query name is
// rejected. shapeKey separates the two names with a zero byte, so
// ("a\x00b", "c") and ("a", "b\x00c") would hash the same bytes and fold
// into one shape.
func TestEventValidate(t *testing.T) {
	if shapeKey("a\x00b", "c") != shapeKey("a", "b\x00c") {
		t.Fatal("the two rows' names no longer share a shape key; the rows test nothing")
	}
	ok := func() Event {
		return Event{Txn: "a", Query: "c", Kind: core.Read, Accesses: []core.TableAccess{
			{Table: "t", Attributes: []string{"f"}, Rows: 1},
		}}
	}
	valid := ok()
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid event rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Event)
	}{
		{"NUL in transaction name", func(e *Event) { e.Txn = "a\x00b" }},
		{"NUL in query name", func(e *Event) { e.Query = "b\x00c" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := ok()
			tc.mutate(&e)
			err := e.Validate()
			if err == nil || !strings.Contains(err.Error(), "NUL byte") {
				t.Fatalf("Validate() = %v, want a NUL byte error", err)
			}
		})
	}
}
