package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vpart"
	"vpart/internal/core/jsontest"
	"vpart/internal/randgen"
	"vpart/internal/seeds"
)

// coldBodies returns the request bodies of the cold benchmark workload at
// workload seed 1, as the benchmark builds them: eight rndAt128x400c8
// instances, each encoded indented and compacted into a create request for
// decompose on 4 sites with solver seed 1. The first has 911 queries. The
// bodies are built once per test binary, since the daemon's race step runs
// the package twenty times; callers must not modify them.
func coldBodies(tb testing.TB) [][]byte {
	tb.Helper()
	bodies, err := coldBodiesOnce()
	if err != nil {
		tb.Fatal(err)
	}
	return bodies
}

var coldBodiesOnce = sync.OnceValues(func() ([][]byte, error) {
	var bodies [][]byte
	for i := range 8 {
		inst, err := randgen.Generate(randgen.MultiComponent(8, 128, 400, 10), seeds.Derive(1, i))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := vpart.EncodeInstance(&buf, inst); err != nil {
			return nil, err
		}
		body, err := json.Marshal(CreateSessionRequest{
			Name:     fmt.Sprintf("bench-%d", i),
			Instance: buf.Bytes(),
			Options:  SessionOptions{Sites: 4, Solver: "decompose", Seed: 1},
		})
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
})

// envelope wraps an instance document in a create body.
func envelope(instance string) string {
	return `{"name":"s","instance":` + instance + `,"options":{"sites":2,"solver":"sa"}}`
}

// createResult is what ParseCreateSessionRequest returns.
type createResult struct {
	name string
	inst *vpart.Instance
	opts vpart.Options
}

// checkCreateAgainstReference fails unless ParseCreateSessionRequest and
// parseCreateSessionRequestJSON, its encoding/json reference, both reject
// data with the same error text, or both accept it with the same name and
// deeply equal instances and options. It returns the result and error.
func checkCreateAgainstReference(t *testing.T, data []byte) (createResult, error) {
	t.Helper()
	var got, want createResult
	var err, werr error
	got.name, got.inst, got.opts, err = ParseCreateSessionRequest(data)
	want.name, want.inst, want.opts, werr = parseCreateSessionRequestJSON(data)
	switch {
	case err != nil && werr != nil:
		if err.Error() != werr.Error() {
			t.Fatalf("error %q, reference error %q", err, werr)
		}
	case err != nil || werr != nil:
		t.Fatalf("error %v, reference error %v", err, werr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("decoded request differs from the reference:\ngot  %#v\nwant %#v", got, want)
	}
	return got, err
}

// createRows are create bodies at the edges of the envelope's canonical
// form; err is a substring of the expected error, "" when the body is
// accepted, and fast whether scanCreateSessionRequest accepts it.
var createRows = []struct {
	name, body, err string
	fast            bool
}{
	{"canonical", envelope(jsontest.Tiny), "", true},
	{"constraints", `{"name":"s","instance":` + jsontest.Tiny + `,"options":{"sites":2},"constraints":{"pin_txns":[{"txn":"X","site":1}],"separate":[{"a":"T.a","b":"U.a"}]}}`, "", true},
	{"constraints null", `{"name":"s","instance":` + jsontest.Tiny + `,"options":{"sites":2},"constraints":null}`, "", true},
	{"bad constraints", `{"name":"s","instance":` + jsontest.Tiny + `,"options":{"sites":2},"constraints":{"pin_txns":[{"txn":"","site":0}]}}`, "create request: constraints:", true},
	{"unknown constraint key", `{"name":"s","instance":` + jsontest.Tiny + `,"options":{"sites":2},"constraints":{"pins":[]}}`, `unknown field "pins"`, true},
	{"unknown option", `{"name":"s","instance":` + jsontest.Tiny + `,"options":{"sites":2,"bogus":1}}`, `unknown field "bogus"`, false},
	{"option of the wrong type", `{"name":"s","instance":` + jsontest.Tiny + `,"options":{"sites":"2"}}`, "cannot unmarshal string", false},
	{"options first", `{"options":{"sites":3,"seed":7},"name":"s","instance":` + jsontest.Tiny + `}`, "", true},
	{"options null", `{"name":"s","instance":` + jsontest.Tiny + `,"options":null}`, "sites must be ≥ 1", true},
	{"no options", `{"name":"s","instance":` + jsontest.Tiny + `}`, "sites must be ≥ 1", true},
	{"too many sites", `{"name":"s","instance":` + jsontest.Tiny + `,"options":{"sites":2000}}`, "sites must be ≤", true},
	{"escaped session name", `{"name":"s\u0031","instance":` + jsontest.Tiny + `,"options":{"sites":2}}`, "", false},
	{"empty session name", `{"name":"","instance":` + jsontest.Tiny + `,"options":{"sites":2}}`, "create request: empty name", false},
	{"no session name", `{"instance":` + jsontest.Tiny + `,"options":{"sites":2}}`, "create request: empty name", false},
	{"no instance", `{"name":"s","options":{"sites":2}}`, "create request: missing instance", false},
	{"null instance", `{"name":"s","instance":null,"options":{"sites":2}}`, "instance: empty name", false},
	{"invalid instance", `{"name":"s","instance":{"name":"x","schema":{"tables":[]}},"options":{"sites":2}}`, "schema: no tables", true},
	{"invalid instance and empty name", `{"name":"","instance":{"name":"x"},"options":{"sites":2}}`, "create request: empty name", false},
	{"repeated session name", `{"name":"a","name":"s","instance":` + jsontest.Tiny + `,"options":{"sites":2}}`, "", false},
	{"repeated options", `{"name":"s","instance":` + jsontest.Tiny + `,"options":{"sites":9},"options":{"seed":3}}`, "", false},
	{"upper-case key", `{"Name":"s","instance":` + jsontest.Tiny + `,"options":{"sites":2}}`, "", false},
	{"unknown key", `{"name":"s","instance":` + jsontest.Tiny + `,"options":{"sites":2},"bogus":true}`, `unknown field "bogus"`, false},
	{"whitespace", "\n{ \"name\" :\t\"s\" ,\r\n\"instance\" : " + jsontest.Tiny + " , \"options\" : { \"sites\" : 2 } }\n", "", true},
	{"trailing data", envelope(jsontest.Tiny) + jsontest.TrailingData, "trailing data after JSON value", false},
	{"trailing data in the instance", envelope(jsontest.Tiny + "]"), "invalid character ']'", false},
	{"truncated", envelope(jsontest.Tiny)[:100], "unexpected EOF", false},
	{"not an object", `[]`, "cannot unmarshal array", false},
}

// TestParseCreateSessionRequestMatchesReference runs create bodies through
// both decoders: they must agree. The bodies are the envelope rows, every
// instance edge row of jsontest wrapped in a body, and the cold benchmark's
// bodies, which the fast path must accept. The generated instance documents
// are TestDecodeInstanceMatchesReference's (internal/core).
func TestParseCreateSessionRequestMatchesReference(t *testing.T) {
	check := func(t *testing.T, body, wantErr string, fast bool) {
		t.Helper()
		if _, ok := scanCreateSessionRequest([]byte(body)); ok != fast {
			t.Fatalf("fast path accepts: %v, want %v", ok, fast)
		}
		_, err := checkCreateAgainstReference(t, []byte(body))
		switch {
		case wantErr == "" && err != nil:
			t.Fatalf("rejected: %v", err)
		case wantErr != "" && err == nil:
			t.Fatalf("accepted, want an error containing %q", wantErr)
		case wantErr != "" && !strings.Contains(err.Error(), wantErr):
			t.Fatalf("error %q, want it to contain %q", err, wantErr)
		}
	}
	for _, row := range createRows {
		t.Run(row.name, func(t *testing.T) { check(t, row.body, row.err, row.fast) })
	}
	// Wrapped in a body, an instance edge row is accepted or rejected as
	// on its own, and takes the same path; the error texts differ.
	for _, row := range jsontest.EdgeRows() {
		t.Run("instance "+row.Name, func(t *testing.T) {
			body := []byte(envelope(row.JSON))
			if _, ok := scanCreateSessionRequest(body); ok != row.Fast {
				t.Fatalf("fast path accepts: %v, want %v", ok, row.Fast)
			}
			if _, err := checkCreateAgainstReference(t, body); (err == nil) != (row.Err == "") {
				t.Fatalf("error %v, want one containing %q", err, row.Err)
			}
		})
	}
	for i, body := range coldBodies(t) {
		t.Run(fmt.Sprint("cold ", i), func(t *testing.T) { check(t, string(body), "", true) })
	}
}

// TestParseCreateSessionRequestAllocs gates the allocations of decoding the
// first cold benchmark body (911 queries): the fast path made 1,540, most of
// them the distinct names and validation's tables, where encoding/json made
// 19,268.
func TestParseCreateSessionRequestAllocs(t *testing.T) {
	const bound = 1600
	body := coldBodies(t)[0]
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, _, err := ParseCreateSessionRequest(body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > bound {
		t.Errorf("%.0f allocations, want at most %d", allocs, bound)
	}
}

// BenchmarkParseCreateSessionRequest decodes the first cold benchmark body.
func BenchmarkParseCreateSessionRequest(b *testing.B) {
	body := coldBodies(b)[0]
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, _, err := ParseCreateSessionRequest(body); err != nil {
			b.Fatal(err)
		}
	}
}
