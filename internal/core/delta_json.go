package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"vpart/internal/jsonscan"
)

// Workload deltas cross process boundaries in the daemon (POST
// /v1/sessions/{name}/deltas) and in persisted drift traces, so they need a
// serialised form. A delta is a JSON object {"ops": [...]} whose ops are a
// tagged union on the "op" field:
//
//	{"op": "add_query",    "txn": "NewOrder", "query": {…Query JSON…}}
//	{"op": "remove_query", "txn": "NewOrder", "query": "q03"}
//	{"op": "scale_freq",   "txn": "NewOrder", "query": "q01", "factor": 4}
//	{"op": "add_attr",     "table": "Warehouse", "attr": {"name": "W_X", "width": 8}}
//
// The encoding is a fixed point under one round trip, like the instance and
// assignment formats (see FuzzDeltaJSON).

type deltaJSON struct {
	Ops []json.RawMessage `json:"ops"`
}

type opHeader struct {
	Op string `json:"op"`
}

type addQueryJSON struct {
	Op    string `json:"op"`
	Txn   string `json:"txn"`
	Query Query  `json:"query"`
}

type removeQueryJSON struct {
	Op    string `json:"op"`
	Txn   string `json:"txn"`
	Query string `json:"query"`
}

type scaleFreqJSON struct {
	Op     string  `json:"op"`
	Txn    string  `json:"txn"`
	Query  string  `json:"query"`
	Factor float64 `json:"factor"`
}

type addAttrJSON struct {
	Op    string    `json:"op"`
	Table string    `json:"table"`
	Attr  Attribute `json:"attr"`
}

// MarshalJSON encodes the delta in the tagged-union format above.
func (d WorkloadDelta) MarshalJSON() ([]byte, error) {
	ops := make([]json.RawMessage, 0, len(d.Ops))
	for i, op := range d.Ops {
		var v any
		switch o := op.(type) {
		case AddQuery:
			v = addQueryJSON{Op: "add_query", Txn: o.Txn, Query: o.Query}
		case RemoveQuery:
			v = removeQueryJSON{Op: "remove_query", Txn: o.Txn, Query: o.Query}
		case ScaleFreq:
			v = scaleFreqJSON{Op: "scale_freq", Txn: o.Txn, Query: o.Query, Factor: o.Factor}
		case AddAttr:
			v = addAttrJSON{Op: "add_attr", Table: o.Table, Attr: o.Attr}
		default:
			return nil, fmt.Errorf("encode delta: op %d has unknown type %T", i, op)
		}
		raw, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("encode delta: op %d: %w", i, err)
		}
		ops = append(ops, raw)
	}
	return json.Marshal(deltaJSON{Ops: ops})
}

// UnmarshalJSON decodes the tagged-union format. Unknown op tags and unknown
// fields inside an op are rejected, so a typo in a hand-written delta fails
// loudly instead of silently dropping the edit.
func (d *WorkloadDelta) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var wire deltaJSON
	if err := dec.Decode(&wire); err != nil {
		return fmt.Errorf("decode delta: %w", err)
	}
	ops := make([]DeltaOp, 0, len(wire.Ops))
	for i, raw := range wire.Ops {
		var hdr opHeader
		if err := json.Unmarshal(raw, &hdr); err != nil {
			return fmt.Errorf("decode delta: op %d: %w", i, err)
		}
		strict := func(v any) error {
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(v); err != nil {
				return fmt.Errorf("decode delta: op %d (%q): %w", i, hdr.Op, err)
			}
			return nil
		}
		switch hdr.Op {
		case "add_query":
			var o addQueryJSON
			if err := strict(&o); err != nil {
				return err
			}
			ops = append(ops, AddQuery{Txn: o.Txn, Query: o.Query})
		case "remove_query":
			var o removeQueryJSON
			if err := strict(&o); err != nil {
				return err
			}
			ops = append(ops, RemoveQuery{Txn: o.Txn, Query: o.Query})
		case "scale_freq":
			var o scaleFreqJSON
			if err := strict(&o); err != nil {
				return err
			}
			ops = append(ops, ScaleFreq{Txn: o.Txn, Query: o.Query, Factor: o.Factor})
		case "add_attr":
			var o addAttrJSON
			if err := strict(&o); err != nil {
				return err
			}
			ops = append(ops, AddAttr{Table: o.Table, Attr: o.Attr})
		default:
			return fmt.Errorf("decode delta: op %d has unknown tag %q", i, hdr.Op)
		}
	}
	d.Ops = ops
	return nil
}

// EncodeDelta writes a workload delta as indented JSON.
func EncodeDelta(w io.Writer, d WorkloadDelta) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("encode delta: %w", err)
	}
	return nil
}

// DecodeDelta reads a workload delta from JSON. The delta is structurally
// validated only; name resolution happens when it is applied to an instance.
// Only whitespace may follow the document.
func DecodeDelta(r io.Reader) (WorkloadDelta, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var d WorkloadDelta
	if err := dec.Decode(&d); err != nil {
		return WorkloadDelta{}, fmt.Errorf("decode delta: %w", err)
	}
	if err := jsonscan.Finish(dec); err != nil {
		return WorkloadDelta{}, fmt.Errorf("decode delta: %w", err)
	}
	return d, nil
}
