package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"vpart"
	"vpart/internal/daemon/service"
	"vpart/internal/randgen"
)

// eventsBody renders a batch as the NDJSON wire form.
func eventsBody(tb testing.TB, events []vpart.QueryEvent) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range events {
		if err := enc.Encode(EventDTO{
			Txn: events[i].Txn, Query: events[i].Query,
			Kind: events[i].Kind, Accesses: events[i].Accesses,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// streamBody renders n events of a randgen stream family ("ycsb" or
// "social") over the given shape universe as an NDJSON body.
func streamBody(tb testing.TB, family string, shapes, n int, seed int64) []byte {
	tb.Helper()
	var stream *randgen.EventStream
	var err error
	switch family {
	case "ycsb":
		stream, err = randgen.NewYCSB(randgen.YCSBParams{Shapes: shapes}, seed)
	case "social":
		stream, err = randgen.NewSocial(randgen.SocialParams{Shapes: shapes}, seed)
	default:
		tb.Fatalf("unknown stream family %q", family)
	}
	if err != nil {
		tb.Fatal(err)
	}
	events := make([]vpart.QueryEvent, n)
	stream.Fill(events)
	return eventsBody(tb, events)
}

// referenceEvents decodes an NDJSON batch line by line with the
// encoding/json reference decoder alone. It is the oracle
// ParseEventsRequest must match: the same inputs accepted, the same events
// out, the same error text.
func referenceEvents(data []byte) ([]vpart.QueryEvent, error) {
	var events []vpart.QueryEvent
	for i, raw := range bytes.Split(data, []byte("\n")) {
		raw = bytes.TrimSpace(raw)
		if len(raw) == 0 {
			continue
		}
		ev, err := decodeEventLine(raw)
		if err != nil {
			return nil, fmt.Errorf("events: line %d: %w", i+1, err)
		}
		if len(events) >= maxEventBatch {
			return nil, fmt.Errorf("events: batch exceeds %d events", maxEventBatch)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("events: empty batch")
	}
	return events, nil
}

// checkAgainstReference fails unless ParseEventsRequest and the reference
// both reject data with the same error text, or both accept it with
// deeply equal events. It returns the decoded events and error.
func checkAgainstReference(t *testing.T, data []byte) ([]vpart.QueryEvent, error) {
	t.Helper()
	got, err := ParseEventsRequest(data)
	want, werr := referenceEvents(data)
	switch {
	case err != nil && werr != nil:
		if err.Error() != werr.Error() {
			t.Fatalf("error %q, reference error %q", err, werr)
		}
	case err != nil || werr != nil:
		t.Fatalf("error %v, reference error %v", err, werr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("decoded events differ from the reference:\ngot  %#v\nwant %#v", got, want)
	}
	return got, err
}

const sampleAccess = `{"table":"x","attributes":["a","b"],"rows":2}`

// canonicalLine is an event line the scanner decodes; escapedLine is one
// with an escape, which it leaves to encoding/json. encoding/json grows a
// slice to capacity 4 for its third element, so escapedLine's access list
// and attribute lists decode with spare capacity.
const (
	canonicalLine = `{"txn":"t","query":"q","kind":"write","accesses":[` + sampleAccess + `]}`
	escapedLine   = `{"txn":"t\u0041","query":"q","kind":"read","accesses":[` +
		`{"table":"x","attributes":["a","b","c"],"rows":1},` +
		`{"table":"y","attributes":["d","e","f"],"rows":2},` +
		`{"table":"z","attributes":["g","h","i"],"rows":3}]}`
)

// eventRows are NDJSON bodies at the edges of the canonical form the
// scanner decodes; err is a substring of the expected error, "" when the
// body is accepted. FuzzEventsRequest seeds from them too.
var eventRows = []struct {
	name, body, err string
}{
	{"canonical", canonicalLine, ""},
	{"shared list", `{"txn":"t","query":"q","kind":"read","accesses":[` + sampleAccess + `]}` + "\n" +
		`{"txn":"u","query":"r","kind":"write","accesses":[` + sampleAccess + `]}`, ""},
	{"trailing bracket", `{"txn":"t","query":"q","kind":"read","accesses":[` + sampleAccess + `]}]`, "trailing data after event object"},
	{"trailing brace", `{"txn":"t","query":"q","kind":"read","accesses":[` + sampleAccess + `]}}`, "trailing data after event object"},
	{"trailing garbage", `{"txn":"t","query":"q","kind":"read","accesses":[` + sampleAccess + `]}]]]garbage`, "trailing data after event object"},
	{"trailing word", `{"txn":"t","query":"q","kind":"read","accesses":[` + sampleAccess + `]} trailing`, "trailing data after event object"},
	{"two objects", `{"txn":"t"}{"txn":"u"}`, "trailing data after event object"},
	{"escaped names", `{"txn":"t\u0041","query":"q\"\\\/","kind":"read","accesses":[{"table":"x\n","attributes":["\u00e9"],"rows":1}]}`, ""},
	{"non-ASCII names", `{"txn":"tä","query":"q€","kind":"read","accesses":[{"table":"x","attributes":["é"],"rows":1}]}`, ""},
	{"invalid UTF-8", "{\"txn\":\"t\xff\",\"query\":\"q\",\"kind\":\"read\",\"accesses\":[]}", ""},
	{"control character", "{\"txn\":\"t\x01\"}", "invalid character"},
	{"folded keys", `{"TXN":"t","Query":"q","KIND":"read","Accesses":[{"TABLE":"x","Attributes":["a"],"ROWS":1}]}`, ""},
	{"escaped key", `{"t\u0078n":"t","query":"q","kind":"read","accesses":[]}`, ""},
	{"numeric kind", `{"txn":"t","query":"q","kind":1,"accesses":[` + sampleAccess + `]}`, ""},
	{"numeric kind out of range", `{"txn":"t","query":"q","kind":7,"accesses":[]}`, "invalid query kind 7"},
	{"unknown kind", `{"txn":"t","query":"q","kind":"scan","accesses":[]}`, `invalid query kind "scan"`},
	{"duplicate keys", `{"txn":"a","txn":"b","query":"q","kind":"read","kind":"write","accesses":[` + sampleAccess + `]}`, ""},
	{"duplicate accesses", `{"accesses":[` + sampleAccess + `],"accesses":[{"table":"y"}]}`, ""},
	{"duplicate access keys", `{"accesses":[{"table":"x","table":"y","rows":1,"rows":3}]}`, ""},
	{"null fields", `{"txn":null,"query":null,"accesses":[{"table":null,"attributes":null,"rows":null}]}`, ""},
	{"null kind", `{"txn":"t","query":"q","kind":null,"accesses":[]}`, `invalid query kind ""`},
	{"null accesses", `{"txn":"t","query":"q","kind":"read","accesses":null}`, ""},
	{"rows out of range", `{"txn":"t","query":"q","kind":"read","accesses":[{"table":"x","attributes":["a"],"rows":1e400}]}`, "cannot unmarshal number 1e400"},
	{"rows forms", `{"accesses":[{"rows":-0},{"rows":1.5e3},{"rows":1E-2},{"rows":0.125},{"rows":2e+1},{"rows":123456789012345678901234567890}]}`, ""},
	{"rows leading zero", `{"accesses":[{"rows":01}]}`, "invalid character"},
	{"rows bare point", `{"accesses":[{"rows":1.}]}`, "invalid character"},
	{"rows plus sign", `{"accesses":[{"rows":+1}]}`, "invalid character"},
	{"rows string", `{"accesses":[{"rows":"1"}]}`, "cannot unmarshal string"},
	{"empty arrays", `{"txn":"t","query":"q","kind":"read","accesses":[{"table":"x","attributes":[],"rows":1},{}]}` + "\n" +
		`{"txn":"t","query":"q","kind":"read","accesses":[]}`, ""},
	{"empty object", `{}`, ""},
	{"missing attributes", `{"accesses":[{"table":"x","rows":1},{"table":"y","attributes":["a"]}]}`, ""},
	{"whitespace", "\t{ \"txn\" : \"t\" ,\t\"kind\":\r\"read\", \"accesses\" : [ { \"table\" : \"x\" , \"attributes\" : [ \"a\" , \"b\" ] , \"rows\" : 2 } ] }  ", ""},
	{"CRLF endings", `{"txn":"t","query":"q","kind":"read","accesses":[` + sampleAccess + `]}` + "\r\n\r\n" +
		`{"txn":"t","query":"q","kind":"write","accesses":[` + sampleAccess + `]}` + "\r\n", ""},
	{"unicode space", "\u00a0{\"txn\":\"t\"}\u2028", ""},
	{"byte order mark", "\ufeff{\"txn\":\"t\"}", "invalid character"},
	{"unknown key", `{"txn":"t","query":"q","kind":"read","accesses":[` + sampleAccess + `],"bogus":1}`, `unknown field "bogus"`},
	// The scanner decodes and keeps the access list before it meets the
	// folded key and hands the line to the reference; the later lines
	// then take the kept list, which must not alias reused scratch.
	{"folded key after accesses", `{"accesses":[` + sampleAccess + `],"TXN":"t"}` + "\n" +
		`{"accesses":[{"table":"y","attributes":["c","d","e"],"rows":3},{"table":"z","attributes":["f"],"rows":4}]}` + "\n" +
		`{"accesses":[` + sampleAccess + `]}`, ""},
	{"list not last", `{"accesses":[` + sampleAccess + `],"txn":"t","query":"q]"}` + "\n" +
		`{"accesses":[` + sampleAccess + `],"txn":"u","query":"r]"}`, ""},
	{"accesses not objects", `{"accesses":[1]}`, "cannot unmarshal number"},
	{"accesses not an array", `{"accesses":{}}`, "cannot unmarshal object"},
	{"truncated", `{"txn":"t`, "unexpected EOF"},
	{"not an object", `[]`, "cannot unmarshal array"},
	{"blank lines only", "\n \n\t\n", "events: empty batch"},
	{"empty body", "", "events: empty batch"},
	{"error line number", `{}` + "\n\n" + `{"txn":1}`, "events: line 3:"},
	// Repeated lines come from the line table, not from a second decode.
	{"repeated canonical line", canonicalLine + "\n" + canonicalLine + "\n" + canonicalLine, ""},
	{"repeated escaped line", escapedLine + "\n" + escapedLine + "\n" + canonicalLine + "\n" + escapedLine, ""},
	{"repeat with other spacing", canonicalLine + "\r\n  " + canonicalLine + "\t\r\n\r\n\u00a0" + canonicalLine + " \n", ""},
	{"error after a repeat", canonicalLine + "\n" + canonicalLine + "\n" + `{"txn":1}`, "events: line 3:"},
}

// TestParseEventsRequestMatchesReference runs the edge rows through both
// decoders: they must agree, and each row must decode or fail as it says.
func TestParseEventsRequestMatchesReference(t *testing.T) {
	for _, row := range eventRows {
		t.Run(row.name, func(t *testing.T) {
			_, err := checkAgainstReference(t, []byte(row.body))
			switch {
			case row.err == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case row.err != "" && err == nil:
				t.Fatalf("accepted, want an error containing %q", row.err)
			case row.err != "" && !strings.Contains(err.Error(), row.err):
				t.Fatalf("error %q, want it to contain %q", err, row.err)
			}
		})
	}
	for _, family := range []string{"ycsb", "social"} {
		t.Run(family, func(t *testing.T) {
			checkAgainstReference(t, streamBody(t, family, 1<<16, 2048, 1))
		})
	}
	// The line table stops probing on the first half, which repeats no
	// line, so the second half's repeats are decoded again.
	t.Run("distinct then repeated", func(t *testing.T) {
		body := distinctBody(t, 2*lineTrial)
		checkAgainstReference(t, append(body, body...))
	})
}

// TestParseEventsRequestBatchLimit checks the batch cap: maxEventBatch
// events decode, one more is refused.
func TestParseEventsRequestBatchLimit(t *testing.T) {
	body := bytes.Repeat([]byte("{}\n"), maxEventBatch)
	events, err := ParseEventsRequest(body)
	if err != nil || len(events) != maxEventBatch {
		t.Fatalf("%d events: decoded %d, err %v", maxEventBatch, len(events), err)
	}
	if _, err := ParseEventsRequest(append(body, "{}"...)); err == nil || err.Error() != fmt.Sprintf("events: batch exceeds %d events", maxEventBatch) {
		t.Fatalf("%d events: err %v", maxEventBatch+1, err)
	}
}

// TestParseEventsRequestAllocs gates the decoder's allocations at under one
// per event on 8192-event bodies of both stream families; decoding each line
// with encoding/json made about 30.
func TestParseEventsRequestAllocs(t *testing.T) {
	const n = 8192
	for _, family := range []string{"ycsb", "social"} {
		body := streamBody(t, family, 1<<16, n, 1)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := ParseEventsRequest(body); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations for %d events", family, allocs, n)
		if allocs >= n {
			t.Errorf("%s: %.0f allocations for %d events, want fewer than one per event", family, allocs, n)
		}
	}
}

// TestParseEventsRequestOwnsStrings checks that decoded events do not alias
// the body, so a caller may reuse or unmap it once the decoder returns, and
// that events which share a decoded line or list share nothing an append
// can write through: an append to one event's accesses, or to one access's
// attributes, leaves every other event and every other append unchanged.
// The stream bodies repeat lines from the scanner; the last body repeats a
// line encoding/json decodes.
func TestParseEventsRequestOwnsStrings(t *testing.T) {
	for _, row := range []struct {
		name string
		body []byte
	}{
		{"ycsb", streamBody(t, "ycsb", 2000, 2000, 3)},
		{"social", streamBody(t, "social", 2000, 2000, 3)},
		{"repeated escaped line", []byte(strings.Repeat(escapedLine+"\n", 3))},
	} {
		events, err := ParseEventsRequest(row.body)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]vpart.QueryEvent, len(events))
		for i, ev := range events {
			want[i] = vpart.QueryEvent{Txn: strings.Clone(ev.Txn), Query: strings.Clone(ev.Query), Kind: ev.Kind}
			for _, a := range ev.Accesses {
				attrs := make([]string, len(a.Attributes))
				for j, name := range a.Attributes {
					attrs[j] = strings.Clone(name)
				}
				want[i].Accesses = append(want[i].Accesses, vpart.TableAccess{Table: strings.Clone(a.Table), Attributes: attrs, Rows: a.Rows})
			}
		}
		for i := range row.body {
			row.body[i] = 'X'
		}
		if !reflect.DeepEqual(events, want) {
			t.Fatalf("%s: overwriting the body changed the decoded events", row.name)
		}

		// Append a mark naming the event (and access) to every access list
		// and attribute list; a shared backing array with spare capacity
		// lets a later append overwrite an earlier one's mark.
		accs := make([][]vpart.TableAccess, len(events))
		attrs := make([][][]string, len(events))
		for i, ev := range events {
			accs[i] = append(ev.Accesses, vpart.TableAccess{Table: strconv.Itoa(i)})
			for j, a := range ev.Accesses {
				attrs[i] = append(attrs[i], append(a.Attributes, fmt.Sprint(i, ".", j)))
			}
		}
		for i := range events {
			if got := accs[i][len(accs[i])-1].Table; got != strconv.Itoa(i) {
				t.Fatalf("%s: event %d: the access appended to its list reads %q: another event's append wrote over it", row.name, i, got)
			}
			for j, l := range attrs[i] {
				if got, mark := l[len(l)-1], fmt.Sprint(i, ".", j); got != mark {
					t.Fatalf("%s: event %d access %d: the attribute appended reads %q, want %q", row.name, i, j, got, mark)
				}
			}
		}
		if !reflect.DeepEqual(events, want) {
			t.Fatalf("%s: appending to the access and attribute lists changed the decoded events", row.name)
		}
	}
}

// distinctBody renders n YCSB events as an NDJSON body in which every line
// is a new shape: event i's query name gets the suffix ".i".
func distinctBody(tb testing.TB, n int) []byte {
	tb.Helper()
	stream, err := randgen.NewYCSB(randgen.YCSBParams{Shapes: 1 << 16}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	events := make([]vpart.QueryEvent, n)
	stream.Fill(events)
	for i := range events {
		events[i].Query += "." + strconv.Itoa(i)
	}
	return eventsBody(tb, events)
}

// BenchmarkParseEventsRequest decodes 8192-event bodies, the size of one
// live-ycsb epoch in advbench: a YCSB body, whose lines repeat as often as
// the stream's zipfian head does, and one whose lines are all distinct, so
// no line is decoded from the line table.
func BenchmarkParseEventsRequest(b *testing.B) {
	for _, row := range []struct {
		name string
		body []byte
	}{
		{"ycsb", streamBody(b, "ycsb", 1<<16, 8192, 1)},
		{"distinct", distinctBody(b, 8192)},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.SetBytes(int64(len(row.body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ParseEventsRequest(row.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestHTTPEvents drives POST /v1/sessions/{name}/events end to end: NDJSON
// batches are accepted, the ingest state surfaces in the session state, and
// a forced resolve folds the partial epoch into the priced workload.
func TestHTTPEvents(t *testing.T) {
	ts, _, _ := newTestServer(t, service.Policy{Debounce: time.Millisecond})
	stream, err := randgen.NewYCSB(randgen.YCSBParams{Shapes: 3000, HotShapes: 256}, 12)
	if err != nil {
		t.Fatal(err)
	}
	body := createBody(t, "stream", stream.Base(), SessionOptions{Sites: 2, Solver: "sa", Seed: 1, TimeLimit: "30s"}, nil)
	var state service.SessionState
	if code := do(t, "POST", ts.URL+"/v1/sessions?wait=1", body, &state); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	seedQueries := state.Instance.Queries

	events := make([]vpart.QueryEvent, 2000)
	stream.Fill(events)
	var evResp EventsResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/stream/events", eventsBody(t, events), &evResp); code != http.StatusAccepted {
		t.Fatalf("events: status %d", code)
	}
	if evResp.Accepted != len(events) {
		t.Fatalf("accepted %d of %d events", evResp.Accepted, len(events))
	}

	// A forced resolve flushes the partial epoch; with wait=1 the response
	// carries the post-fold state.
	if code := do(t, "POST", ts.URL+"/v1/sessions/stream/resolve?wait=1", nil, &state); code != http.StatusOK {
		t.Fatalf("resolve: status %d", code)
	}
	if state.Ingest == nil {
		t.Fatal("session state lacks the ingest section after streaming")
	}
	if state.Ingest.Events != 2000 || state.Ingest.Epochs < 1 {
		t.Fatalf("ingest state = %+v, want 2000 events and ≥ 1 epoch", state.Ingest)
	}
	if state.Instance.Queries <= seedQueries {
		t.Fatalf("instance has %d queries, seed had %d — stream not folded", state.Instance.Queries, seedQueries)
	}

	// Bad inputs map to 400s; unknown sessions to 404.
	var errResp ErrorResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/stream/events", []byte("not json"), &errResp); code != http.StatusBadRequest {
		t.Fatalf("garbage events: status %d (%+v)", code, errResp)
	}
	if code := do(t, "POST", ts.URL+"/v1/sessions/stream/events", []byte(""), &errResp); code != http.StatusBadRequest {
		t.Fatalf("empty events: status %d", code)
	}
	bad := eventsBody(t, []vpart.QueryEvent{{Txn: "t", Query: "q", Kind: vpart.Read}})
	if code := do(t, "POST", ts.URL+"/v1/sessions/stream/events", bad, &errResp); code != http.StatusBadRequest {
		t.Fatalf("accessless event: status %d", code)
	}
	ok := eventsBody(t, events[:1])
	if code := do(t, "POST", ts.URL+"/v1/sessions/ghost/events", ok, &errResp); code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", code)
	}
}
