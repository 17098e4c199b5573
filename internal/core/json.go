package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"vpart/internal/jsonscan"
)

// EncodeInstance writes an instance as indented JSON.
func EncodeInstance(w io.Writer, inst *Instance) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(inst); err != nil {
		return fmt.Errorf("encode instance: %w", err)
	}
	return nil
}

// DecodeInstance reads an instance from JSON and validates it. The
// document must be one JSON object: unknown fields and anything but
// whitespace after the object are rejected.
//
// It reads all of r and decodes the canonical form that EncodeInstance and
// json.Marshal write in one pass (ScanInstance): exact lowercase field
// names, each at most once; strings of printable ASCII without escapes;
// kinds "read" or "write"; integer widths; no null. Any other document is
// decoded again by DecodeInstanceReference, the encoding/json decoder that
// is the fast path's fallback and test oracle, so the accepted documents,
// the decoded instance and the error text are the reference's.
func DecodeInstance(r io.Reader) (*Instance, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("decode instance: %w", err)
	}
	return decodeInstanceBytes(data)
}

// decodeInstanceBytes is DecodeInstance over a document held in memory.
func decodeInstanceBytes(data []byte) (*Instance, error) {
	c := jsonscan.Cursor{Buf: data}
	inst, ok := ScanInstance(&c)
	if !ok || !c.End() {
		return DecodeInstanceReference(bytes.NewReader(data))
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
}

// DecodeInstanceReference reads an instance from JSON with encoding/json,
// strict about unknown fields and trailing data, and validates it. It is
// DecodeInstance's fallback and the oracle its fast path is tested against.
func DecodeInstanceReference(r io.Reader) (*Instance, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var inst Instance
	if err := dec.Decode(&inst); err != nil {
		return nil, fmt.Errorf("decode instance: %w", err)
	}
	if err := jsonscan.Finish(dec); err != nil {
		return nil, fmt.Errorf("decode instance: %w", err)
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return &inst, nil
}

// SaveInstance writes an instance to a JSON file.
func SaveInstance(path string, inst *Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("save instance: %w", err)
	}
	defer f.Close()
	if err := EncodeInstance(f, inst); err != nil {
		return err
	}
	return f.Close()
}

// LoadInstance reads an instance from a JSON file, as DecodeInstance does.
func LoadInstance(path string) (*Instance, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("load instance: %w", err)
	}
	return decodeInstanceBytes(data)
}

// EncodeAssignment writes a partitioning assignment as indented JSON.
func EncodeAssignment(w io.Writer, as *Assignment) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(as); err != nil {
		return fmt.Errorf("encode assignment: %w", err)
	}
	return nil
}

// DecodeAssignment reads a partitioning assignment from JSON; only
// whitespace may follow the document.
func DecodeAssignment(r io.Reader) (*Assignment, error) {
	dec := json.NewDecoder(r)
	var as Assignment
	if err := dec.Decode(&as); err != nil {
		return nil, fmt.Errorf("decode assignment: %w", err)
	}
	if err := jsonscan.Finish(dec); err != nil {
		return nil, fmt.Errorf("decode assignment: %w", err)
	}
	return &as, nil
}

// SaveAssignment writes a partitioning assignment to a JSON file.
func SaveAssignment(path string, as *Assignment) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("save assignment: %w", err)
	}
	defer f.Close()
	if err := EncodeAssignment(f, as); err != nil {
		return err
	}
	return f.Close()
}

// LoadAssignment reads a partitioning assignment from a JSON file.
func LoadAssignment(path string) (*Assignment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("load assignment: %w", err)
	}
	defer f.Close()
	return DecodeAssignment(f)
}

// EncodeConstraints writes a placement-constraint set as indented JSON.
func EncodeConstraints(w io.Writer, c *Constraints) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("encode constraints: %w", err)
	}
	return nil
}

// DecodeConstraints reads a placement-constraint set from JSON and validates
// its structure (name resolution happens when the set is compiled against a
// model). Only whitespace may follow the document.
func DecodeConstraints(r io.Reader) (*Constraints, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Constraints
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("decode constraints: %w", err)
	}
	if err := jsonscan.Finish(dec); err != nil {
		return nil, fmt.Errorf("decode constraints: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// SaveConstraints writes a constraint set to a JSON file.
func SaveConstraints(path string, c *Constraints) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("save constraints: %w", err)
	}
	defer f.Close()
	if err := EncodeConstraints(f, c); err != nil {
		return err
	}
	return f.Close()
}

// LoadConstraints reads a constraint set from a JSON file.
func LoadConstraints(path string) (*Constraints, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("load constraints: %w", err)
	}
	defer f.Close()
	return DecodeConstraints(f)
}

// MarshalJSON encodes QueryKind as "read"/"write" for readability of
// instance files.
func (k QueryKind) MarshalJSON() ([]byte, error) {
	switch k {
	case Read:
		return []byte(`"read"`), nil
	case Write:
		return []byte(`"write"`), nil
	default:
		return nil, fmt.Errorf("invalid query kind %d", int(k))
	}
}

// UnmarshalJSON decodes "read"/"write" (or the legacy numeric form) into a
// QueryKind.
func (k *QueryKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		switch s {
		case "read":
			*k = Read
			return nil
		case "write":
			*k = Write
			return nil
		default:
			return fmt.Errorf("invalid query kind %q", s)
		}
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("invalid query kind %s", string(data))
	}
	switch QueryKind(n) {
	case Read, Write:
		*k = QueryKind(n)
		return nil
	default:
		return fmt.Errorf("invalid query kind %d", n)
	}
}
