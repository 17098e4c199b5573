package vpart_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"vpart"
	"vpart/internal/seeds"
)

// updateGolden regenerates testdata/fixed_seed.golden. A regenerated file
// changes what every later change is held to, so commit it only together
// with a CHANGES.md line that explains the diff.
var updateGolden = flag.Bool("update", false, "rewrite testdata/fixed_seed.golden from this build")

const goldenPath = "testdata/fixed_seed.golden"

// goldenLayoutHash hashes a partitioning's site count, transaction sites and
// replica bits, so two layouts hash equal exactly when they are equal.
func goldenLayoutHash(p *vpart.Partitioning) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(p.Sites)
	put(len(p.TxnSite))
	for _, s := range p.TxnSite {
		put(s)
	}
	put(len(p.AttrSites))
	for _, row := range p.AttrSites {
		for _, on := range row {
			if on {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// goldenCase is one fixed-seed run. It returns the bits of the cost it pins
// and a hash of everything else the run decides.
type goldenCase struct {
	name string
	run  func(t *testing.T) (cost float64, hash string)
}

func goldenSolve(inst func(t *testing.T) *vpart.Instance, opts vpart.Options) func(t *testing.T) (float64, string) {
	return func(t *testing.T) (float64, string) {
		sol, err := vpart.Solve(context.Background(), inst(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		return sol.Cost.Balanced, goldenLayoutHash(sol.Partitioning)
	}
}

func goldenRandom(params vpart.RandomParams, seed int64) func(t *testing.T) *vpart.Instance {
	return func(t *testing.T) *vpart.Instance {
		inst, err := vpart.RandomInstance(params, seed)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
}

// goldenConstraints is one constraint set of every kind but a site capacity
// over rndAt64x200 (seed 1) on 8 sites: a transaction pin, an attribute pin,
// a forbidden site, a replica cap, a colocated pair and a separated pair. The
// separated pair includes an attribute no transaction reads, so a random
// transaction assignment cannot make the set infeasible.
func goldenConstraints(t *testing.T) *vpart.Constraints {
	qa := func(s string) vpart.QualifiedAttr {
		q, err := vpart.ParseQualifiedAttr(s)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	return &vpart.Constraints{
		PinTxns:     []vpart.PinTxn{{Txn: "txn007", Site: 3}},
		PinAttrs:    []vpart.PinAttr{{Attr: qa("T03.a00"), Site: 1}},
		ForbidAttrs: []vpart.ForbidAttr{{Attr: qa("T13.a00"), Site: 0}},
		MaxReplicas: []vpart.MaxReplicas{{Attr: qa("T02.a12"), K: 6}},
		Colocate:    []vpart.Colocate{{A: qa("T02.a01"), B: qa("T08.a01")}},
		Separate:    []vpart.Separate{{A: qa("T03.a01"), B: qa("T07.a00")}},
	}
}

func goldenCases(t *testing.T) []goldenCase {
	tpcc := func(*testing.T) *vpart.Instance { return vpart.TPCC() }
	rnd64 := goldenRandom(vpart.ClassA(64, 200, 10), 1)
	relevant := vpart.DefaultModelOptions()
	relevant.WriteAccounting = vpart.WriteRelevant
	relevant.LatencyPenalty = 0.5
	// The first instance of the cold benchmark workload at workload seed 1.
	cold := goldenRandom(vpart.MultiComponentClass(8, 128, 400, 10), seeds.Derive(1, 0))
	cases := []goldenCase{
		{"tpcc/3/sa", goldenSolve(tpcc, vpart.Options{Sites: 3, Solver: "sa", Seed: 1})},
		{"tpcc/3/portfolio", goldenSolve(tpcc, vpart.Options{Sites: 3, Solver: "portfolio", Seed: 1})},
		{"rndAt64x200/8/sa", goldenSolve(rnd64, vpart.Options{Sites: 8, Solver: "sa", Seed: 1})},
		{"rndAt64x200/8/portfolio", goldenSolve(rnd64, vpart.Options{Sites: 8, Solver: "portfolio", Seed: 1})},
		{"rndAt64x200/8/sa/disjoint", goldenSolve(rnd64, vpart.Options{Sites: 8, Solver: "sa", Seed: 1, Disjoint: true})},
		{"rndAt64x200/8/sa/relevant-latency", goldenSolve(rnd64, vpart.Options{Sites: 8, Solver: "sa", Seed: 1, Model: &relevant})},
		{"rndAt64x200/8/sa/constrained", goldenSolve(rnd64, vpart.Options{Sites: 8, Solver: "sa", Seed: 1, Constraints: goldenConstraints(t)})},
		{"rndAt64x200/8/sa-par/constrained", goldenSolve(rnd64, vpart.Options{Sites: 8, Solver: "sa-par", Seed: 1, Constraints: goldenConstraints(t)})},
		{"rndAt128x400c8[0]/4/decompose", goldenSolve(cold, vpart.Options{Sites: 4, Solver: "decompose", Seed: 1})},
	}
	for _, solver := range []string{"sa", "portfolio"} {
		for _, spec := range benchScenarios(8, 8192, 3) {
			spec, solver := spec, solver
			cases = append(cases, goldenCase{
				name: "scenario/" + spec.Name + "/" + solver,
				run: func(t *testing.T) (float64, string) {
					res, err := vpart.RunScenario(context.Background(), spec, vpart.Options{Solver: solver, Seed: spec.Seed})
					if err != nil {
						t.Fatal(err)
					}
					return res.Epochs[len(res.Epochs)-1].ResolveCost, res.Fingerprint()
				},
			})
		}
	}
	return cases
}

// readGolden parses the golden file: one "name cost-bits hash" line per case.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		out[name] = rest
	}
	return out
}

// TestFixedSeedGolden pins the fixed-seed outputs of the solvers: the bits of
// the balanced cost and a hash of the layout for TPC-C, rndAt64x200 (default
// model, disjoint, WriteRelevant accounting with the latency term, and
// constrained under sa and sa-par) and one cold benchmark instance, and the
// fingerprints of the four scenarios. A change that claims bit-identical
// results must pass it unchanged; one that means to change results
// regenerates the file with -update.
//
// Off amd64 the compiler may fuse multiply-adds, which changes the last bits
// of a cost and with them the search trajectory, so the test is skipped there.
func TestFixedSeedGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden outputs are recorded on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	cases := goldenCases(t)
	got := make([]string, len(cases))
	for i, c := range cases {
		cost, hash := c.run(t)
		got[i] = fmt.Sprintf("%016x %s", math.Float64bits(cost), hash)
	}
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# name balanced-cost-bits layout-or-fingerprint-hash; regenerate with go test -run TestFixedSeedGolden -update\n")
		for i, c := range cases {
			fmt.Fprintf(&b, "%s %s\n", c.name, got[i])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(cases) {
		t.Errorf("%s has %d cases, the test runs %d", goldenPath, len(want), len(cases))
	}
	for i, c := range cases {
		if w, ok := want[c.name]; !ok {
			t.Errorf("%s: missing from %s", c.name, goldenPath)
		} else if got[i] != w {
			t.Errorf("%s: got %s, golden %s", c.name, got[i], w)
		}
	}
}
