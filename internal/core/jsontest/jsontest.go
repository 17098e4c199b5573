// Package jsontest holds the instance documents that the instance decoders
// are tested on: core.DecodeInstance against its encoding/json reference,
// and vpartd's session-create decoder, which carries an instance in its
// body. It is imported by tests only.
package jsontest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"vpart/internal/core"
	"vpart/internal/randgen"
	"vpart/internal/tpcc"
)

// Doc is a named instance document.
type Doc struct {
	Name string
	JSON []byte
}

// Generated returns documents of generated instances: every
// randgen.NamedClasses class at seeds 1 and 2, TPC-C, and the YCSB and
// Social stream bases. Each comes twice: indented, as core.EncodeInstance
// writes it, and compact, as json.Marshal writes it into a create request.
// Every one is in the canonical form core.ScanInstance decodes.
func Generated(tb testing.TB) []Doc {
	tb.Helper()
	type named struct {
		name string
		inst *core.Instance
	}
	var insts []named
	for _, p := range randgen.NamedClasses() {
		for _, seed := range []int64{1, 2} {
			inst, err := randgen.Generate(p, seed)
			if err != nil {
				tb.Fatal(err)
			}
			insts = append(insts, named{fmt.Sprintf("%s/%d", p.Name, seed), inst})
		}
	}
	insts = append(insts, named{"tpcc", tpcc.Instance()})
	ycsb, err := randgen.NewYCSB(randgen.YCSBParams{Shapes: 1 << 16}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	social, err := randgen.NewSocial(randgen.SocialParams{Shapes: 1 << 16}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	insts = append(insts, named{"ycsb-base", ycsb.Base()}, named{"social-base", social.Base()})

	var docs []Doc
	for _, n := range insts {
		docs = append(docs, Indented(tb, n.name+"/indented", n.inst), Compact(tb, n.name+"/compact", n.inst))
	}
	return docs
}

// Indented renders inst as core.EncodeInstance writes it.
func Indented(tb testing.TB, name string, inst *core.Instance) Doc {
	tb.Helper()
	var buf bytes.Buffer
	if err := core.EncodeInstance(&buf, inst); err != nil {
		tb.Fatal(err)
	}
	return Doc{Name: name, JSON: buf.Bytes()}
}

// Compact renders inst as json.Marshal writes it.
func Compact(tb testing.TB, name string, inst *core.Instance) Doc {
	tb.Helper()
	data, err := json.Marshal(inst)
	if err != nil {
		tb.Fatal(err)
	}
	return Doc{Name: name, JSON: data}
}

// Tiny is a valid instance document in the canonical form; the edge rows
// are edits of it.
const Tiny = `{"name":"tiny","schema":{"tables":[` +
	`{"name":"T","attributes":[{"name":"a","width":4},{"name":"b","width":8}]},` +
	`{"name":"U","attributes":[{"name":"a","width":2}]}]},` +
	`"workload":{"transactions":[` +
	`{"name":"X","queries":[` +
	`{"name":"q","kind":"read","frequency":1,"accesses":[{"table":"T","attributes":["a","b"],"rows":1},{"table":"U","attributes":["a"],"rows":2.5}]},` +
	`{"name":"w","kind":"write","frequency":0.5,"accesses":[{"table":"T","attributes":["b"],"rows":1}]}]},` +
	`{"name":"Y","queries":[{"name":"q","kind":"read","frequency":3e1,"accesses":[{"table":"U","attributes":["a"],"rows":1}]}]}]}}`

// Row is an edge row: a document at an edge of the canonical form. Every
// empty or missing list fails validation, so a test that compares decoded
// values must compare them before validation too.
type Row struct {
	Name string
	JSON string
	// Err is a substring of the error the document decodes to; "" when it
	// decodes to a valid instance.
	Err string
	// Fast reports whether core.ScanInstance accepts the document; when it
	// does not, the decoders hand it to encoding/json.
	Fast bool
}

// edit returns Tiny with the first occurrence of old replaced by new; it
// panics if Tiny lacks old, so a row cannot silently test Tiny itself.
func edit(old, new string) string {
	if !strings.Contains(Tiny, old) {
		panic(fmt.Sprintf("jsontest: Tiny has no %q", old))
	}
	return strings.Replace(Tiny, old, new, 1)
}

// TrailingData is what the trailing-data rows append to a valid document.
const TrailingData = ` {"x": 1} junk`

// EdgeRows returns the edge rows.
func EdgeRows() []Row {
	return []Row{
		{"tiny", Tiny, "", true},
		{"whitespace", strings.NewReplacer(",", " ,\n\t", ":", "\r: ", "{", " { ", "]", " ] ").Replace(Tiny) + "\n", "", true},
		{"escaped name", edit(`"name":"X"`, `"name":"X\"A\\"`), "", false},
		{"escaped attribute reference", edit(`"attributes":["a","b"]`, `"attributes":["\u0061","b"]`), "", false},
		{"non-ASCII name", edit(`"name":"X"`, `"name":"Xä€"`), "", false},
		{"unknown key", edit(`"name":"X"`, `"name":"X","bogus":1`), `unknown field "bogus"`, false},
		{"repeated key", edit(`"name":"X"`, `"name":"Z","name":"X"`), "", false},
		{"repeated list key", edit(`"name":"w","kind":"write"`, `"name":"w","accesses":[{"table":"U","attributes":["a"],"rows":7}],"kind":"write"`), "", false},
		{"upper-case key", edit(`"name":"X"`, `"NAME":"X"`), "", false},
		{"width 8.0", edit(`"width":8`, `"width":8.0`), "cannot unmarshal number 8.0", false},
		{"width 1e1", edit(`"width":8`, `"width":1e1`), "cannot unmarshal number 1e1", false},
		{"width 99999999999999999999", edit(`"width":8`, `"width":99999999999999999999`), "cannot unmarshal number 99999999999999999999", false},
		{"width 18 digits", edit(`"width":8`, `"width":999999999999999999`), "", true},
		{"width negative", edit(`"width":8`, `"width":-8`), "non-positive width -8", true},
		{"width string", edit(`"width":8`, `"width":"8"`), "cannot unmarshal string", false},
		{"numeric kind", edit(`"kind":"write"`, `"kind":1`), "", false},
		{"unknown kind", edit(`"kind":"write"`, `"kind":"upsert"`), `invalid query kind "upsert"`, false},
		{"rows forms", edit(`"rows":2.5`, `"rows":25E-1`), "", true},
		{"rows out of range", edit(`"rows":2.5`, `"rows":1e400`), "cannot unmarshal number 1e400", false},
		{"null document", `null`, "instance: empty name", false},
		{"null name", edit(`"name":"X"`, `"name":null`), "transaction with empty name", false},
		{"null accesses", edit(`"accesses":[{"table":"T","attributes":["b"],"rows":1}]`, `"accesses":null`), "accesses no tables", false},
		{"null attributes", edit(`"attributes":["b"]`, `"attributes":null`), "references no attributes", false},
		{"null kind", edit(`"kind":"write"`, `"kind":null`), `invalid query kind ""`, false},
		{"empty attribute list", edit(`"attributes":["b"]`, `"attributes":[]`), "references no attributes", true},
		{"empty access list", edit(`"accesses":[{"table":"T","attributes":["b"],"rows":1}]`, `"accesses":[]`), "accesses no tables", true},
		{"empty tables", `{"name":"x","schema":{"tables":[]},"workload":{"transactions":[]}}`, "schema: no tables", true},
		{"empty object", `{}`, "instance: empty name", true},
		{"missing frequency", edit(`"frequency":0.5,`, ``), "non-positive frequency 0", true},
		{"missing attributes", edit(`"attributes":["b"],`, ``), "references no attributes", true},
		{"missing workload", `{"name":"x","schema":{"tables":[{"name":"T","attributes":[{"name":"a","width":1}]}]}}`, "workload: no transactions", true},
		{"truncated", Tiny[:len(Tiny)/2], "unexpected EOF", false},
		{"trailing data", Tiny + TrailingData, "trailing data after JSON value", false},
		{"trailing bracket", Tiny + "]", "trailing data after JSON value", false},
		{"trailing whitespace", "\n " + Tiny + " \r\n\t", "", true},
		{"two documents", Tiny + Tiny, "trailing data after JSON value", false},
		{"not an object", `[]`, "cannot unmarshal array", false},
	}
}
