// The fuzz targets live in the external test package so that the seed corpus
// can be drawn from the TPC-C, randgen and sa packages, which themselves
// import core.
package core_test

import (
	"bytes"
	"context"
	"testing"

	"vpart/internal/core"
	"vpart/internal/core/jsontest"
	"vpart/internal/randgen"
	"vpart/internal/sa"
	"vpart/internal/tpcc"
)

// FuzzInstanceJSON checks the JSON round-trip of problem instances: any
// bytes that decode into a valid instance must re-encode and decode to the
// identical serialised form (a fixed point after one round trip), and the
// decoded instance must always pass validation — DecodeInstance must never
// hand back an instance the solvers would choke on. Every input also goes
// through checkInstanceAgainstReference: DecodeInstance, fast path
// included, must agree with its encoding/json reference. The last seeds
// are a cold benchmark instance (rndAt128x400c8), compact and indented.
func FuzzInstanceJSON(f *testing.F) {
	seed := func(inst *core.Instance) {
		var buf bytes.Buffer
		if err := core.EncodeInstance(&buf, inst); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(tpcc.Instance())
	for _, params := range []randgen.Params{
		randgen.DefaultParams(5, 3),
		randgen.ClassA(4, 6, 10),
		randgen.ClassB(4, 6, 50),
		randgen.MultiComponent(2, 4, 4, 10),
	} {
		inst, err := randgen.Generate(params, 1)
		if err != nil {
			f.Fatal(err)
		}
		seed(inst)
	}
	// A few malformed documents steer the fuzzer towards the error paths.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","schema":{"tables":[]},"workload":{"transactions":[]}}`))
	f.Add([]byte(`{"name":"x","unknown":1}`))
	cold, err := randgen.Generate(randgen.MultiComponent(8, 128, 400, 10), 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(jsontest.Compact(f, "compact", cold).JSON)
	f.Add(jsontest.Indented(f, "indented", cold).JSON)

	f.Fuzz(func(t *testing.T, data []byte) {
		inst, err := checkInstanceAgainstReference(t, data)
		if err != nil {
			return // invalid input: rejecting it is the correct behaviour
		}
		if err := inst.Validate(); err != nil {
			t.Fatalf("DecodeInstance returned an invalid instance: %v", err)
		}
		var first bytes.Buffer
		if err := core.EncodeInstance(&first, inst); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		inst2, err := core.DecodeInstance(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded instance failed: %v", err)
		}
		var second bytes.Buffer
		if err := core.EncodeInstance(&second, inst2); err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip is not a fixed point:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzAssignmentJSON mirrors FuzzInstanceJSON for the name-based assignment
// format: any bytes that decode into an assignment must re-encode and decode
// to the identical serialised form (a fixed point after one round trip). The
// seed corpus is drawn from real solver outputs — SA solves of TPC-C and the
// random classes converted through ToAssignment — so regressions in the
// solver-facing serialisation path surface as crashers.
func FuzzAssignmentJSON(f *testing.F) {
	seedFrom := func(inst *core.Instance, sites int, seed int64) {
		m, err := core.NewModel(inst, core.DefaultModelOptions())
		if err != nil {
			f.Fatal(err)
		}
		opts := sa.DefaultOptions(sites)
		opts.Seed = seed
		opts.MaxOuterLoops = 2
		opts.InnerLoops = 4
		res, err := sa.Solve(context.Background(), m, opts)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := core.EncodeAssignment(&buf, res.Partitioning.ToAssignment(m)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seedFrom(tpcc.Instance(), 3, 1)
	inst, err := randgen.Generate(randgen.ClassA(4, 6, 10), 1)
	if err != nil {
		f.Fatal(err)
	}
	seedFrom(inst, 2, 2)
	// Malformed documents steer the fuzzer towards the error paths.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"sites":2,"transactions":{"X":0},"attributes":{"T.a":[0,1]}}`))
	f.Add([]byte(`{"sites":-1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		as, err := core.DecodeAssignment(bytes.NewReader(data))
		if err != nil {
			return // invalid input: rejecting it is the correct behaviour
		}
		var first bytes.Buffer
		if err := core.EncodeAssignment(&first, as); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		as2, err := core.DecodeAssignment(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded assignment failed: %v", err)
		}
		var second bytes.Buffer
		if err := core.EncodeAssignment(&second, as2); err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip is not a fixed point:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzConstraintsJSON extends the round-trip guarantee to placement
// constraint files: any bytes DecodeConstraints accepts must be a
// fixed point after one decode→encode→decode cycle, and the decoded set must
// always pass structural validation.
func FuzzConstraintsJSON(f *testing.F) {
	seed := func(c *core.Constraints) {
		var buf bytes.Buffer
		if err := core.EncodeConstraints(&buf, c); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(&core.Constraints{
		PinTxns:  []core.PinTxn{{Txn: "NewOrder", Site: 2}},
		PinAttrs: []core.PinAttr{{Attr: core.QualifiedAttr{Table: "WAREHOUSE", Attr: "W_ID"}, Site: 0}},
	})
	seed(&core.Constraints{
		ForbidAttrs: []core.ForbidAttr{{Attr: core.QualifiedAttr{Table: "CUSTOMER", Attr: "C_DATA"}, Site: 1}},
		Colocate: []core.Colocate{{
			A: core.QualifiedAttr{Table: "ORDERS", Attr: "O_ID"},
			B: core.QualifiedAttr{Table: "ORDER_LINE", Attr: "OL_O_ID"},
		}},
		MaxReplicas:    []core.MaxReplicas{{Attr: core.QualifiedAttr{Table: "ITEM", Attr: "I_PRICE"}, K: 2}},
		SiteCapacities: []core.SiteCapacity{{Site: 1, Bytes: 4096}},
	})
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"pin_txns":[{"txn":"","site":-1}]}`))
	f.Add([]byte(`{"pin_attrs":[{"attr":"NoDot","site":0}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := core.DecodeConstraints(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("DecodeConstraints returned an invalid set: %v", err)
		}
		var first bytes.Buffer
		if err := core.EncodeConstraints(&first, c); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		c2, err := core.DecodeConstraints(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded constraints failed: %v", err)
		}
		var second bytes.Buffer
		if err := core.EncodeConstraints(&second, c2); err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip is not a fixed point:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}
