package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vpart/internal/core"
	"vpart/internal/core/jsontest"
	"vpart/internal/jsonscan"
	"vpart/internal/randgen"
	"vpart/internal/seeds"
)

// scans reports whether the fast path, core.ScanInstance, accepts the whole
// document, and returns what it decoded.
func scans(data []byte) (*core.Instance, bool) {
	c := jsonscan.Cursor{Buf: data}
	inst, ok := core.ScanInstance(&c)
	return inst, ok && c.End()
}

// checkInstanceAgainstReference fails unless DecodeInstance and
// DecodeInstanceReference both reject data with the same error text, or
// both accept it with deeply equal instances. When the fast path accepts
// data, what it decoded must also equal encoding/json's decode before
// validation, since validation rejects every empty or missing list. It
// returns the decoded instance and error.
func checkInstanceAgainstReference(t *testing.T, data []byte) (*core.Instance, error) {
	t.Helper()
	if fast, ok := scans(data); ok {
		var want core.Instance
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&want); err != nil {
			t.Fatalf("the fast path accepted a document encoding/json rejects: %v", err)
		}
		if !reflect.DeepEqual(fast, &want) {
			t.Fatalf("the fast path decoded another instance than encoding/json:\ngot  %#v\nwant %#v", fast, &want)
		}
	}
	got, err := core.DecodeInstance(bytes.NewReader(data))
	want, werr := core.DecodeInstanceReference(bytes.NewReader(data))
	switch {
	case err != nil && werr != nil:
		if err.Error() != werr.Error() {
			t.Fatalf("error %q, reference error %q", err, werr)
		}
	case err != nil || werr != nil:
		t.Fatalf("error %v, reference error %v", err, werr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("decoded instance differs from the reference:\ngot  %#v\nwant %#v", got, want)
	}
	return got, err
}

// TestDecodeInstanceMatchesReference runs the generated documents and the
// edge rows through DecodeInstance and its encoding/json reference: they
// must agree. The fast path must accept every generated document, and each
// edge row must take the path it names and decode or fail as it says.
func TestDecodeInstanceMatchesReference(t *testing.T) {
	for _, doc := range jsontest.Generated(t) {
		t.Run(doc.Name, func(t *testing.T) {
			if _, ok := scans(doc.JSON); !ok {
				t.Fatal("the fast path left a generated document to encoding/json")
			}
			if _, err := checkInstanceAgainstReference(t, doc.JSON); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, row := range jsontest.EdgeRows() {
		t.Run(row.Name, func(t *testing.T) {
			if _, got := scans([]byte(row.JSON)); got != row.Fast {
				t.Fatalf("fast path accepts: %v, want %v", got, row.Fast)
			}
			_, err := checkInstanceAgainstReference(t, []byte(row.JSON))
			switch {
			case row.Err == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case row.Err != "" && err == nil:
				t.Fatalf("accepted, want an error containing %q", row.Err)
			case row.Err != "" && !strings.Contains(err.Error(), row.Err):
				t.Fatalf("error %q, want it to contain %q", err, row.Err)
			}
		})
	}
}

// TestDecodeInstanceOwnsSlices checks that a decoded instance aliases
// neither its document nor itself: overwriting the document changes
// nothing, and an append to one query's access list, or to one access's
// attribute list, leaves every other query unchanged. The fast path carves
// these lists from shared chunks, so each must end at its own length.
func TestDecodeInstanceOwnsSlices(t *testing.T) {
	inst, err := randgen.Generate(randgen.MultiComponent(2, 8, 30, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	doc := jsontest.Compact(t, "compact", inst).JSON
	if _, ok := scans(doc); !ok {
		t.Fatal("the fast path left the document to encoding/json")
	}
	got, err := core.DecodeInstance(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := got.Clone()
	for i := range doc {
		doc[i] = 'X'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("overwriting the document changed the decoded instance")
	}

	// Append a mark naming the query (and access) to every access list and
	// attribute list; a list with spare capacity in a shared chunk lets a
	// later append overwrite a neighbour's elements.
	type mark struct{ t, q, a int }
	var accs [][]core.TableAccess
	var attrs [][]string
	var marks []mark
	for ti, tx := range got.Workload.Transactions {
		for qi, q := range tx.Queries {
			accs = append(accs, append(q.Accesses, core.TableAccess{Table: fmt.Sprint(ti, ".", qi)}))
			for ai, a := range q.Accesses {
				attrs = append(attrs, append(a.Attributes, fmt.Sprint(ti, ".", qi, ".", ai)))
				marks = append(marks, mark{ti, qi, ai})
			}
		}
		// The query list too: appending to one transaction's queries must
		// not reach the next transaction's.
		_ = append(tx.Queries, core.Query{Name: "appended"})
	}
	k := 0
	for ti, tx := range got.Workload.Transactions {
		for qi := range tx.Queries {
			if l, want := accs[k], fmt.Sprint(ti, ".", qi); l[len(l)-1].Table != want {
				t.Fatalf("query %d.%d: the access appended reads %q, want %q", ti, qi, l[len(l)-1].Table, want)
			}
			k++
		}
	}
	for i, m := range marks {
		if l, want := attrs[i], fmt.Sprint(m.t, ".", m.q, ".", m.a); l[len(l)-1] != want {
			t.Fatalf("access %d.%d.%d: the attribute appended reads %q, want %q", m.t, m.q, m.a, l[len(l)-1], want)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("appending to the access, attribute and query lists changed the decoded instance")
	}
}

// TestDecodersRejectTrailingData checks each whole-document decoder of this
// package: a valid document decodes, also with whitespace around it, and
// the same document followed by more than whitespace is rejected.
func TestDecodersRejectTrailingData(t *testing.T) {
	for _, row := range []struct {
		name, doc string
		decode    func(r *strings.Reader) error
	}{
		{"instance", jsontest.Tiny, func(r *strings.Reader) error { _, err := core.DecodeInstance(r); return err }},
		{"assignment", `{"sites":2,"transactions":{"X":1},"attributes":{"T.a":[0,1]}}`, func(r *strings.Reader) error { _, err := core.DecodeAssignment(r); return err }},
		{"constraints", `{"pin_txns":[{"txn":"X","site":1}]}`, func(r *strings.Reader) error { _, err := core.DecodeConstraints(r); return err }},
		{"delta", `{"ops":[{"op":"scale_freq","txn":"X","query":"q","factor":2}]}`, func(r *strings.Reader) error { _, err := core.DecodeDelta(r); return err }},
	} {
		t.Run(row.name, func(t *testing.T) {
			if err := row.decode(strings.NewReader("\n " + row.doc + " \r\n\t")); err != nil {
				t.Fatalf("valid document rejected: %v", err)
			}
			err := row.decode(strings.NewReader(row.doc + jsontest.TrailingData))
			if err == nil || !strings.Contains(err.Error(), jsonscan.ErrTrailingData.Error()) {
				t.Fatalf("document with trailing data: error %v, want %q", err, jsonscan.ErrTrailingData)
			}
		})
	}
}

// BenchmarkDecodeInstance decodes the first instance of the cold benchmark
// workload (rndAt128x400c8, workload seed 1: 911 queries), indented as a
// file holds it and compact as a create request carries it.
func BenchmarkDecodeInstance(b *testing.B) {
	inst, err := randgen.Generate(randgen.MultiComponent(8, 128, 400, 10), seeds.Derive(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	for _, doc := range []jsontest.Doc{jsontest.Indented(b, "indented", inst), jsontest.Compact(b, "compact", inst)} {
		b.Run(doc.Name, func(b *testing.B) {
			b.SetBytes(int64(len(doc.JSON)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := core.DecodeInstance(bytes.NewReader(doc.JSON)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
