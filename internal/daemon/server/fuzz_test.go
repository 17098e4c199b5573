package server

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"vpart"
)

// FuzzDaemonRequests fuzzes the HTTP request decoders of the vpartd API —
// the session-create body (instance + options + constraints), the
// workload-delta body and the NDJSON event body. The property is the one the
// library's own JSON fuzz targets enforce: any bytes the decoders accept must
// produce values the solver layer can consume (a validated instance,
// validated options, a re-encodable delta), and a decoded delta or event
// batch must be a fixed point after one encode→decode cycle. Event bodies
// get the checks of FuzzEventsRequest, and create bodies the check of
// checkCreateAgainstReference: ParseCreateSessionRequest, fast path
// included, must agree with its encoding/json reference. The seed corpus
// embeds real instance and constraint documents the same way
// FuzzInstanceJSON and FuzzConstraintsJSON seed theirs; the last seeds are
// the first cold benchmark body, compact as the benchmark sends it, and
// the same body with its instance indented.
func FuzzDaemonRequests(f *testing.F) {
	// Seed with well-formed create requests around real instances.
	addCreate := func(name string, inst *vpart.Instance, opts SessionOptions, cons *vpart.Constraints) {
		var instBuf bytes.Buffer
		if err := vpart.EncodeInstance(&instBuf, inst); err != nil {
			f.Fatal(err)
		}
		req := CreateSessionRequest{Name: name, Instance: instBuf.Bytes(), Options: opts}
		if cons != nil {
			var cbuf bytes.Buffer
			if err := vpart.EncodeConstraints(&cbuf, cons); err != nil {
				f.Fatal(err)
			}
			req.Constraints = cbuf.Bytes()
		}
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add("create", data)
	}
	addCreate("tpcc", vpart.TPCC(), SessionOptions{Sites: 3, Solver: "portfolio", TimeLimit: "30s"},
		&vpart.Constraints{PinTxns: []vpart.PinTxn{{Txn: "NewOrder", Site: 2}}})
	inst, err := vpart.RandomInstance(vpart.ClassA(3, 6, 20), 1)
	if err != nil {
		f.Fatal(err)
	}
	lambda := 0.5
	addCreate("rand", inst, SessionOptions{Sites: 2, Solver: "sa", Seed: 7, Lambda: &lambda, GapTol: 0.01}, nil)
	addCreate("wide", inst, SessionOptions{Sites: maxSessionSites + 1, Solver: "portfolio", PortfolioSeeds: 1 << 40}, nil)
	addCreate("neg", inst, SessionOptions{Sites: 2, Solver: "portfolio", PortfolioSeeds: -5}, nil)
	addCreate("neggap", inst, SessionOptions{Sites: 2, Solver: "qp", GapTol: -1}, nil)

	// Seed with real drift deltas.
	deltas, err := vpart.Drift(vpart.TPCC(), 4, 0.3, 7)
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range deltas {
		var buf bytes.Buffer
		if err := vpart.EncodeDelta(&buf, d); err != nil {
			f.Fatal(err)
		}
		f.Add("delta", buf.Bytes())
	}

	// Seed with well-formed NDJSON event batches from both stream families.
	f.Add("events", streamBody(f, "ycsb", 2000, 64, 13))
	f.Add("events", streamBody(f, "social", 2000, 64, 13))
	f.Add("events", []byte(""))
	f.Add("events", []byte("\n\n\n"))
	f.Add("events", []byte(`{"txn":"t","query":"q","kind":"scan","accesses":[]}`))
	f.Add("events", []byte(`{"txn":"t","query":"q","kind":"read","accesses":[{"table":"x","attributes":["a"],"rows":1}]} trailing`))
	f.Add("events", []byte(`{"unknown_field":1}`))

	// Malformed documents steer the fuzzer towards the error paths.
	f.Add("create", []byte(`{}`))
	f.Add("create", []byte(`{"name":"x","instance":{},"options":{"sites":0}}`))
	f.Add("create", []byte(`{"name":"x","options":{"time_limit":"-3s"}}`))
	f.Add("create", []byte(`{"name":"x","unknown":true}`))
	f.Add("create", []byte(`{"name":"x","options":{"sites":2,"gap_tol":1e999}}`))
	f.Add("delta", []byte(`{"ops":[]}`))
	f.Add("delta", []byte(`{"ops":[{"op":"scale_freq","txn":"T","factor":-1}]}`))
	f.Add("delta", []byte(`{"ops":[{"op":"no_such_op"}]}`))
	cold := coldBodies(f)[0]
	f.Add("create", cold)
	var req CreateSessionRequest
	if err := json.Unmarshal(cold, &req); err != nil {
		f.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, req.Instance, "", "  "); err != nil {
		f.Fatal(err)
	}
	f.Add("create", []byte(`{"name":"bench-0","instance":`+indented.String()+`,"options":{"sites":4,"solver":"decompose","seed":1}}`))

	f.Fuzz(func(t *testing.T, kind string, data []byte) {
		switch kind {
		case "events":
			checkEventsRequest(t, data)
		case "delta":
			d, err := ParseDeltaRequest(data)
			if err != nil {
				return // invalid input: rejecting it is the correct behaviour
			}
			// An empty ops list decodes fine; the service layer rejects it
			// at enqueue time with ErrBadRequest.
			var first bytes.Buffer
			if err := vpart.EncodeDelta(&first, d); err != nil {
				t.Fatalf("re-encode of accepted delta failed: %v", err)
			}
			d2, err := vpart.DecodeDelta(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("decode of re-encoded delta failed: %v", err)
			}
			var second bytes.Buffer
			if err := vpart.EncodeDelta(&second, d2); err != nil {
				t.Fatalf("second encode failed: %v", err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("delta round trip is not a fixed point:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
			}
		default:
			res, err := checkCreateAgainstReference(t, data)
			if err != nil {
				return // invalid input: rejecting it is the correct behaviour
			}
			name, inst, opts := res.name, res.inst, res.opts
			if name == "" {
				t.Fatal("decoder accepted an empty session name")
			}
			if inst == nil {
				t.Fatal("decoder accepted a request without an instance")
			}
			if err := inst.Validate(); err != nil {
				t.Fatalf("decoder returned an invalid instance: %v", err)
			}
			if opts.Sites < 1 || opts.Sites > maxSessionSites {
				t.Fatalf("decoder accepted sites=%d", opts.Sites)
			}
			if opts.Portfolio.SASeeds < 0 || opts.Portfolio.SASeeds > maxPortfolioSeeds {
				t.Fatalf("decoder accepted portfolio_seeds=%d", opts.Portfolio.SASeeds)
			}
			if opts.TimeLimit < 0 {
				t.Fatalf("decoder accepted a negative time limit %v", opts.TimeLimit)
			}
			if opts.GapTol < 0 || math.IsNaN(opts.GapTol) || math.IsInf(opts.GapTol, 0) {
				t.Fatalf("decoder accepted gap_tol=%v", opts.GapTol)
			}
			if opts.Constraints != nil {
				if err := opts.Constraints.Validate(); err != nil {
					t.Fatalf("decoder returned invalid constraints: %v", err)
				}
			}
		}
	})
}

// FuzzEventsRequest fuzzes the event body alone with checkEventsRequest.
// The seeds are bodies of both stream families and eventRows, the
// non-canonical lines the scanner hands to the reference, then bodies that
// repeat their lines so the line table serves them.
func FuzzEventsRequest(f *testing.F) {
	f.Add(streamBody(f, "ycsb", 2000, 8, 13))
	f.Add(streamBody(f, "social", 2000, 8, 13))
	for _, row := range eventRows {
		f.Add([]byte(row.body))
	}
	f.Add(bytes.Repeat(streamBody(f, "ycsb", 4, 4, 13), 3))
	f.Add(bytes.Repeat(streamBody(f, "social", 4, 4, 13), 3))
	for _, line := range []string{canonicalLine, escapedLine, `{"txn":1}`} {
		f.Add([]byte(line + "\n " + line + "\r\n" + line))
	}
	f.Fuzz(checkEventsRequest)
}

// checkEventsRequest checks ParseEventsRequest against referenceEvents, the
// same batch decoded line by line by encoding/json alone: both reject an
// input with the same error text, or both accept it with deeply equal
// events. Accepted events must also be a fixed point of one encode→decode
// cycle.
func checkEventsRequest(t *testing.T, data []byte) {
	t.Helper()
	events, err := checkAgainstReference(t, data)
	if err != nil {
		return // invalid input: rejecting it is the correct behaviour
	}
	if len(events) == 0 {
		t.Fatal("decoder accepted an empty event batch")
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range events {
		if err := enc.Encode(EventDTO{
			Txn: events[i].Txn, Query: events[i].Query,
			Kind: events[i].Kind, Accesses: events[i].Accesses,
		}); err != nil {
			t.Fatalf("re-encode of accepted event failed: %v", err)
		}
	}
	again, err := ParseEventsRequest(buf.Bytes())
	if err != nil {
		t.Fatalf("decode of re-encoded events failed: %v", err)
	}
	if !reflect.DeepEqual(again, events) {
		t.Fatalf("event round trip is not a fixed point:\nfirst:  %#v\nsecond: %#v", events, again)
	}
}
