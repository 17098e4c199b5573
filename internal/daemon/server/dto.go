package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"vpart"
	"vpart/internal/core"
	"vpart/internal/daemon/service"
	"vpart/internal/jsonscan"
)

// The wire types of the vpartd HTTP API. Request decoding is strict
// (DisallowUnknownFields) so a typo in a curl invocation fails with a 400
// instead of silently configuring nothing; the decoders are fuzzed in
// FuzzDaemonRequests and FuzzEventsRequest.

// SessionOptions is the JSON form of the solver options a session is created
// with. Zero-valued fields select the daemon defaults.
type SessionOptions struct {
	// Sites is the number of sites |S| (required, 1 to maxSessionSites).
	Sites int `json:"sites"`
	// Solver names the registered solver ("" = daemon default).
	Solver string `json:"solver,omitempty"`
	// Penalty, Lambda and LatencyPenalty override the cost-model parameters
	// p, λ and p_l; nil keeps the paper defaults.
	Penalty        *float64 `json:"penalty,omitempty"`
	Lambda         *float64 `json:"lambda,omitempty"`
	LatencyPenalty *float64 `json:"latency_penalty,omitempty"`
	// Disjoint forbids attribute replication.
	Disjoint bool `json:"disjoint,omitempty"`
	// DisableGrouping switches off the reasonable-cuts preprocessing.
	DisableGrouping bool `json:"disable_grouping,omitempty"`
	// Preprocess selects the preprocessing pipeline ("group", "none",
	// "decompose"; "" keeps the default).
	Preprocess string `json:"preprocess,omitempty"`
	// TimeLimit caps each background resolve, as a Go duration string
	// ("30s"); "" selects the daemon default.
	TimeLimit string `json:"time_limit,omitempty"`
	// Seed seeds the SA random generator (0 = derive distinct seeds).
	Seed int64 `json:"seed,omitempty"`
	// GapTol is the QP solver's relative MIP gap (0 = the paper's 0.1 %;
	// finite and ≥ 0).
	GapTol float64 `json:"gap_tol,omitempty"`
	// PortfolioSeeds / PortfolioQP configure the portfolio solver.
	// PortfolioSeeds is the number of SA children of a full race (0 = the
	// daemon default, at most maxPortfolioSeeds): the cold first resolve
	// and any resolve whose incumbent did not come out of a warm start. The
	// cold first resolve races them alone; a warm resolve adds the warm
	// sa-par child, and one warm-started from a warm win runs only the warm
	// children. Every child's layout is polished before the race compares
	// them.
	PortfolioSeeds int  `json:"portfolio_seeds,omitempty"`
	PortfolioQP    bool `json:"portfolio_qp,omitempty"`
	// DecomposeSolver / DecomposeWorkers configure the decompose meta-solver.
	DecomposeSolver  string `json:"decompose_solver,omitempty"`
	DecomposeWorkers int    `json:"decompose_workers,omitempty"`
}

// CreateSessionRequest is the body of POST /v1/sessions.
type CreateSessionRequest struct {
	// Name is the session name ([A-Za-z0-9][A-Za-z0-9._-]{0,127}).
	Name string `json:"name"`
	// Instance is the problem instance in the vpart JSON format.
	Instance json.RawMessage `json:"instance"`
	// Options configure every resolve of the session.
	Options SessionOptions `json:"options"`
	// Constraints is an optional placement-constraint document in the vpart
	// constraints JSON format.
	Constraints json.RawMessage `json:"constraints,omitempty"`
}

// DeltaResponse is the body answering POST /v1/sessions/{name}/deltas.
type DeltaResponse struct {
	// Seq identifies the accepted delta; resolves covering it satisfy
	// wait=1.
	Seq int `json:"seq"`
	// PendingOps counts delta ops not yet reflected in the incumbent.
	PendingOps int `json:"pending_ops"`
}

// ResolveResponse is the body answering POST /v1/sessions/{name}/resolve.
type ResolveResponse struct {
	// Attempt is the resolve attempt the forced solve will be.
	Attempt int `json:"attempt"`
}

// ErrorResponse is the uniform error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ParseCreateSessionRequest decodes and validates a session-create body,
// returning the session name, the decoded instance and the mapped solver
// options (constraints included). The body must be one JSON object:
// unknown fields and anything but whitespace after it are rejected.
//
// A body in the canonical form json.Marshal writes is scanned once: its
// keys are the exact lowercase field names, each at most once, its name is
// printable ASCII without escapes, and its instance is in the form
// core.ScanInstance decodes, which decodes it in place, without a
// json.RawMessage copy. Its options and constraints are decoded from their
// own bytes by encoding/json. Any other body goes to
// parseCreateSessionRequestJSON, the encoding/json decoder that is the fast
// path's fallback and test oracle, so the accepted bodies, the decoded
// values and the error text are the reference's.
func ParseCreateSessionRequest(data []byte) (string, *vpart.Instance, vpart.Options, error) {
	req, ok := scanCreateSessionRequest(data)
	if !ok {
		return parseCreateSessionRequestJSON(data)
	}
	if err := req.inst.Validate(); err != nil {
		return "", nil, vpart.Options{}, fmt.Errorf("create request: %w", err)
	}
	return req.finish()
}

// createRequest is a session-create body whose name and instance have been
// decoded and whose instance is present.
type createRequest struct {
	name        string
	inst        *vpart.Instance
	options     SessionOptions
	constraints json.RawMessage
}

// scanCreateSessionRequest is ParseCreateSessionRequest's fast path. It
// reports false for any body it leaves to the reference: one not in the
// canonical form, with an options or constraints value encoding/json
// rejects, with an empty name or without an instance. On a body it
// accepts, the reference's envelope decode and its checks up to the
// instance's validation succeed with the same values.
func scanCreateSessionRequest(data []byte) (createRequest, bool) {
	var req createRequest
	var seen uint8
	c := jsonscan.Cursor{Buf: data}
	ok := c.Object(func(key []byte) bool {
		switch string(key) {
		case "name":
			if !jsonscan.Once(&seen, 1) {
				return false
			}
			s, ok := c.Str()
			req.name = string(s)
			return ok
		case "instance":
			if !jsonscan.Once(&seen, 2) {
				return false
			}
			var ok bool
			req.inst, ok = core.ScanInstance(&c)
			return ok
		case "options":
			return jsonscan.Once(&seen, 4) && decodeValue(&c, &req.options)
		case "constraints":
			return jsonscan.Once(&seen, 8) && decodeValue(&c, &req.constraints)
		}
		return false
	})
	return req, ok && c.End() && req.name != "" && req.inst != nil
}

// decodeValue decodes the JSON value at c's position into v with
// encoding/json, strict about unknown fields, and moves c past it.
func decodeValue(c *jsonscan.Cursor, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(c.Buf[c.Pos:]))
	dec.DisallowUnknownFields()
	if dec.Decode(v) != nil {
		return false
	}
	c.Pos += int(dec.InputOffset())
	return true
}

// parseCreateSessionRequestJSON is ParseCreateSessionRequest's reference:
// encoding/json decodes the body, with the instance as a json.RawMessage
// that core.DecodeInstanceReference decodes and validates.
func parseCreateSessionRequestJSON(data []byte) (string, *vpart.Instance, vpart.Options, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req CreateSessionRequest
	if err := dec.Decode(&req); err != nil {
		return "", nil, vpart.Options{}, fmt.Errorf("decode create request: %w", err)
	}
	if err := jsonscan.Finish(dec); err != nil {
		return "", nil, vpart.Options{}, fmt.Errorf("decode create request: %w", err)
	}
	if req.Name == "" {
		return "", nil, vpart.Options{}, fmt.Errorf("create request: empty name")
	}
	if len(req.Instance) == 0 {
		return "", nil, vpart.Options{}, fmt.Errorf("create request: missing instance")
	}
	inst, err := core.DecodeInstanceReference(bytes.NewReader(req.Instance))
	if err != nil {
		return "", nil, vpart.Options{}, fmt.Errorf("create request: %w", err)
	}
	return createRequest{name: req.Name, inst: inst, options: req.Options, constraints: req.Constraints}.finish()
}

// finish maps the options and decodes the constraints of a body whose
// instance has been validated.
func (req createRequest) finish() (string, *vpart.Instance, vpart.Options, error) {
	opts, err := req.options.ToOptions()
	if err != nil {
		return "", nil, vpart.Options{}, fmt.Errorf("create request: %w", err)
	}
	if len(req.constraints) > 0 {
		cons, err := vpart.DecodeConstraints(bytes.NewReader(req.constraints))
		if err != nil {
			return "", nil, vpart.Options{}, fmt.Errorf("create request: constraints: %w", err)
		}
		opts.Constraints = cons
	}
	return req.name, req.inst, opts, nil
}

// ToOptions maps the wire options onto vpart.Options.
func (o SessionOptions) ToOptions() (vpart.Options, error) {
	if o.Sites < 1 {
		return vpart.Options{}, fmt.Errorf("options: sites must be ≥ 1, got %d", o.Sites)
	}
	if o.Sites > maxSessionSites {
		return vpart.Options{}, fmt.Errorf("options: sites must be ≤ %d, got %d", maxSessionSites, o.Sites)
	}
	if o.PortfolioSeeds < 0 || o.PortfolioSeeds > maxPortfolioSeeds {
		return vpart.Options{}, fmt.Errorf("options: portfolio_seeds must be in [0, %d], got %d", maxPortfolioSeeds, o.PortfolioSeeds)
	}
	if o.GapTol < 0 || math.IsNaN(o.GapTol) || math.IsInf(o.GapTol, 0) {
		return vpart.Options{}, fmt.Errorf("options: gap_tol must be finite and ≥ 0, got %v", o.GapTol)
	}
	opts := vpart.Options{
		Sites:           o.Sites,
		Solver:          o.Solver,
		Disjoint:        o.Disjoint,
		DisableGrouping: o.DisableGrouping,
		Preprocess:      o.Preprocess,
		Seed:            o.Seed,
		GapTol:          o.GapTol,
		Portfolio:       vpart.PortfolioOptions{SASeeds: o.PortfolioSeeds, QP: o.PortfolioQP},
		Decompose:       vpart.DecomposeOptions{Solver: o.DecomposeSolver, Workers: o.DecomposeWorkers},
	}
	if o.TimeLimit != "" {
		d, err := time.ParseDuration(o.TimeLimit)
		if err != nil {
			return vpart.Options{}, fmt.Errorf("options: bad time_limit %q: %w", o.TimeLimit, err)
		}
		if d < 0 {
			return vpart.Options{}, fmt.Errorf("options: negative time_limit %q", o.TimeLimit)
		}
		opts.TimeLimit = d
	}
	if o.Penalty != nil || o.Lambda != nil || o.LatencyPenalty != nil {
		mo := vpart.DefaultModelOptions()
		if o.Penalty != nil {
			mo.Penalty = *o.Penalty
		}
		if o.Lambda != nil {
			mo.Lambda = *o.Lambda
		}
		if o.LatencyPenalty != nil {
			mo.LatencyPenalty = *o.LatencyPenalty
		}
		opts.Model = &mo
	}
	return opts, nil
}

// ParseDeltaRequest decodes a workload delta posted to
// /v1/sessions/{name}/deltas: the body is one delta document {"ops": [...]}
// in the vpart delta JSON format.
func ParseDeltaRequest(data []byte) (vpart.WorkloadDelta, error) {
	return vpart.DecodeDelta(bytes.NewReader(data))
}

// EventDTO is one observed query execution on the wire — one NDJSON line of
// POST /v1/sessions/{name}/events. json.Encoder writes it in the canonical
// form ParseEventsRequest scans without encoding/json.
type EventDTO struct {
	// Txn names the transaction the execution belongs to.
	Txn string `json:"txn"`
	// Query names the query shape within the transaction.
	Query string `json:"query"`
	// Kind is "read" or "write".
	Kind vpart.QueryKind `json:"kind"`
	// Accesses lists the tables the execution touched, in the vpart
	// table-access JSON format. Decoded events share one list per distinct
	// array text, so the lists are read-only.
	Accesses []vpart.TableAccess `json:"accesses"`
}

// EventsResponse is the body answering POST /v1/sessions/{name}/events.
type EventsResponse struct {
	// Accepted is the number of events queued for folding.
	Accepted int `json:"accepted"`
	// Ingest is the session's ingest state as of the last fold (nil on the
	// very first batch: the worker has not built the ingestor yet).
	Ingest *service.IngestState `json:"ingest,omitempty"`
}

// maxEventBatch bounds one NDJSON request, independent of the byte limit, so
// a single request cannot queue unbounded per-event decode work.
const maxEventBatch = 100_000

// maxSessionSites and maxPortfolioSeeds bound the create-request fields that
// size a session's memory and goroutines. Every layout holds one placement
// bit per attribute and site, and a full portfolio race starts one goroutine
// and one result slot per SA seed, so without a bound one request could
// exhaust the daemon's memory. Both lie far above the values the advisor
// is run with: the paper's experiments use 1–4 sites, the benchmarks up to
// 8, and the default race has 4 seeds.
const (
	maxSessionSites   = 1024
	maxPortfolioSeeds = 256
)

// ParseEventsRequest decodes an NDJSON event batch: one EventDTO per line,
// blank lines ignored, unknown fields rejected. Event-level semantic
// validation (non-empty names, known kinds, positive rows) is the service
// layer's job; this decoder only guarantees well-formed JSON of the right
// shape.
//
// A line in the canonical form json.Encoder writes — exact lowercase keys,
// each at most once; printable-ASCII strings without escapes; kind "read"
// or "write"; rows a JSON number — is decoded by the scanner. Any other
// line goes to the encoding/json reference decoder, so the accepted inputs,
// the decoded events and the error text are the reference's. A line table
// that lives for the call maps each trimmed line met so far to the event
// its first occurrence decoded to, and a repeat appends that event again,
// so each distinct line, whatever whitespace surrounds it, is decoded once.
// On a body with too few repeats to pay for it the table stops probing,
// and each later line is decoded on its own.
//
// The result owns its memory: no string aliases data. Names are interned
// for the call, events whose accesses array text is byte-identical share
// one capacity-clipped access list, and a repeated line's events are copies
// of one event, so they share only those names and that list. The lists
// are read-only, as service.EnqueueEvents requires. The line table views
// data instead of copying it, but it is dropped on return.
func ParseEventsRequest(data []byte) ([]vpart.QueryEvent, error) {
	lines := min(bytes.Count(data, []byte{'\n'})+1, maxEventBatch)
	events := make([]vpart.QueryEvent, 0, lines)
	sc := newEventScanner(lines)
	seen := newLineTable(lines)
	line := 0
	for len(data) > 0 {
		line++
		raw := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			raw, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		raw = bytes.TrimSpace(raw)
		if len(raw) == 0 {
			continue
		}
		var ev vpart.QueryEvent
		probing := seen.slots != nil
		i, ok := seen.first(raw, len(events))
		if probing && seen.slots == nil {
			// The table has just stopped: the body's lines are mostly
			// distinct, and each line left brings about one new name.
			sc.reserve(max(lines-line, 0))
		}
		if ok {
			ev = events[i]
		} else if ev, ok = sc.event(raw); !ok {
			var err error
			if ev, err = decodeEventLine(raw); err != nil {
				return nil, fmt.Errorf("events: line %d: %w", line, err)
			}
			ev.Accesses = clipAccesses(ev.Accesses)
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

// decodeEventLine is the reference decoder of one trimmed, non-blank NDJSON
// line: encoding/json, strict about unknown fields, and requiring that the
// event object is the whole line.
func decodeEventLine(raw []byte) (vpart.QueryEvent, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var dto EventDTO
	if err := dec.Decode(&dto); err != nil {
		return vpart.QueryEvent{}, err
	}
	if dec.InputOffset() != int64(len(raw)) {
		return vpart.QueryEvent{}, errors.New("trailing data after event object")
	}
	return vpart.QueryEvent{Txn: dto.Txn, Query: dto.Query, Kind: dto.Kind, Accesses: dto.Accesses}, nil
}

// clipAccesses clips the capacity of an access list encoding/json decoded,
// and of each access's attributes, as the scanner's lists are clipped. The
// events of a repeated line share the list, and an append to one event's
// accesses or attributes must copy instead of writing into another's.
func clipAccesses(accs []vpart.TableAccess) []vpart.TableAccess {
	for i := range accs {
		accs[i].Attributes = slices.Clip(accs[i].Attributes)
	}
	return slices.Clip(accs)
}
