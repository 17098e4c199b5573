package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"vpart/internal/core"
	"vpart/internal/ingest"
	"vpart/internal/randgen"
	"vpart/internal/tpcc"
)

// groupingCorpus returns the instances the grouping is checked on: TPC-C,
// five seeds of every named random class with three drift epochs of the
// first, the YCSB and Social stream bases, and a YCSB base grown by four
// live epochs of 8192 events.
func groupingCorpus(t *testing.T) []*core.Instance {
	t.Helper()
	out := []*core.Instance{tpcc.Instance()}
	for _, p := range randgen.NamedClasses() {
		for seed := int64(1); seed <= 5; seed++ {
			inst, err := randgen.Generate(p, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", p.Name, seed, err)
			}
			out = append(out, inst)
			if seed > 1 {
				continue
			}
			deltas, err := randgen.Drift(inst, 3, 0.3, seed)
			if err != nil {
				t.Fatalf("%s drift: %v", p.Name, err)
			}
			for _, d := range deltas {
				if inst, err = core.ApplyDelta(inst, d); err != nil {
					t.Fatalf("%s drift: %v", p.Name, err)
				}
				out = append(out, inst)
			}
		}
	}
	ycsb, err := randgen.NewYCSB(randgen.YCSBParams{Shapes: 1 << 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	social, err := randgen.NewSocial(randgen.SocialParams{Shapes: 1 << 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, ycsb.Base(), social.Base())

	pipe, err := ingest.New(ycsb.Base(), ingest.Config{
		Shards: 1, EpochEvents: 8192, TopK: 2048,
		SketchWidth: 1 << 15, SketchDepth: 4, ScaleTol: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	inst := ycsb.Base()
	events := make([]ingest.Event, 8192)
	for e := 0; e < 4; e++ {
		ycsb.Fill(events)
		closed, err := pipe.Ingest(events)
		if err != nil || len(closed) != 1 {
			t.Fatalf("epoch %d: %d epochs closed, error %v", e+1, len(closed), err)
		}
		if inst, err = core.ApplyDelta(inst, closed[0].Delta); err != nil {
			t.Fatal(err)
		}
	}
	return append(out, inst)
}

// randomConstraints draws a set of pins, forbids, replica caps, colocation
// and separation pairs, half of them on members of the unconstrained
// grouping's multi-attribute groups so that profiles split some groups and
// keep others; with capacity set it adds one SiteCapacity.
func randomConstraints(r *rand.Rand, inst *core.Instance, base *core.Grouping, capacity bool) *core.Constraints {
	var all []core.QualifiedAttr
	var multi [][]core.QualifiedAttr
	for _, tbl := range inst.Schema.Tables {
		for _, a := range tbl.Attributes {
			qa := core.QualifiedAttr{Table: tbl.Name, Attr: a.Name}
			all = append(all, qa)
			if m := base.Members[qa]; len(m) > 1 {
				multi = append(multi, m)
			}
		}
	}
	pick := func() core.QualifiedAttr {
		if len(multi) > 0 && r.Intn(2) == 0 {
			m := multi[r.Intn(len(multi))]
			return m[r.Intn(len(m))]
		}
		return all[r.Intn(len(all))]
	}
	pair := func() (core.QualifiedAttr, core.QualifiedAttr) {
		a := pick()
		for {
			if b := pick(); b != a {
				return a, b
			}
		}
	}
	cons := &core.Constraints{}
	for n := 1 + r.Intn(6); n > 0; n-- {
		switch r.Intn(5) {
		case 0:
			cons.PinAttrs = append(cons.PinAttrs, core.PinAttr{Attr: pick(), Site: r.Intn(3)})
		case 1:
			cons.ForbidAttrs = append(cons.ForbidAttrs, core.ForbidAttr{Attr: pick(), Site: r.Intn(3)})
		case 2:
			cons.MaxReplicas = append(cons.MaxReplicas, core.MaxReplicas{Attr: pick(), K: 1 + r.Intn(3)})
		case 3:
			a, b := pair()
			cons.Colocate = append(cons.Colocate, core.Colocate{A: a, B: b})
		case 4:
			a, b := pair()
			cons.Separate = append(cons.Separate, core.Separate{A: a, B: b})
		}
	}
	if capacity {
		cons.SiteCapacities = []core.SiteCapacity{{Site: r.Intn(3), Bytes: 1 << 20}}
	}
	return cons
}

// randomLayout places every transaction and attribute of m on random sites
// of three.
func randomLayout(r *rand.Rand, m *core.Model) *core.Partitioning {
	p := core.NewPartitioning(m.NumTxns(), m.NumAttrs(), 3)
	for t := range p.TxnSite {
		p.TxnSite[t] = r.Intn(3)
	}
	for a := range p.AttrSites {
		for s := range p.AttrSites[a] {
			p.AttrSites[a][s] = r.Intn(2) == 0
		}
	}
	return p
}

// TestGroupingMatchesReference: the grouping computed from compiled ids,
// through GroupModel and through GroupAttributesConstrained, equals the
// name-based reference on every corpus instance, unconstrained and under
// random constraint sets: the grouped instance, Members, GroupOf, the mapped
// constraints, and the expansion and reduction of random layouts.
func TestGroupingMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	merging := 0
	corpus := groupingCorpus(t)
	for i, inst := range corpus {
		base, err := core.ReferenceGroupAttributes(inst, nil)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if base.Grouped != inst {
			merging++
		}
		m, err := core.NewModel(inst, core.DefaultModelOptions())
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		sets := []*core.Constraints{nil}
		for k := 0; k < 4; k++ {
			sets = append(sets, randomConstraints(r, inst, base, k == 3))
		}
		for k, cons := range sets {
			name := fmt.Sprintf("%d %s/constraints %d", i, inst.Name, k)
			checkGroupingAgainstReference(t, name, r, inst, m, cons)
		}
	}
	t.Logf("%d instances, %d merge unconstrained", len(corpus), merging)
	if merging == 0 || merging == len(corpus) {
		t.Fatalf("%d of %d instances merge: the corpus must hold both kinds", merging, len(corpus))
	}
}

func checkGroupingAgainstReference(t *testing.T, name string, r *rand.Rand, inst *core.Instance, m *core.Model, cons *core.Constraints) {
	t.Helper()
	ref, err := core.ReferenceGroupAttributes(inst, cons)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := core.GroupAttributesConstrained(inst, cons)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(got.Grouped, ref.Grouped) {
		t.Fatalf("%s: grouped instance differs from the reference", name)
	}
	if (got.Grouped == inst) != (ref.Grouped == inst) {
		t.Fatalf("%s: identity is %v, reference %v", name, got.Grouped == inst, ref.Grouped == inst)
	}
	if !reflect.DeepEqual(got.Members, ref.Members) || !reflect.DeepEqual(got.GroupOf, ref.GroupOf) {
		t.Fatalf("%s: Members or GroupOf differ from the reference", name)
	}
	if fromModel := core.GroupModel(m, cons); (fromModel == nil) != (ref.Grouped == inst) {
		t.Fatalf("%s: GroupModel returned %v, reference identity %v", name, fromModel != nil, ref.Grouped == inst)
	} else if fromModel != nil && (!reflect.DeepEqual(fromModel.Grouped, ref.Grouped) ||
		!reflect.DeepEqual(fromModel.Members, ref.Members) || !reflect.DeepEqual(fromModel.GroupOf, ref.GroupOf)) {
		t.Fatalf("%s: GroupModel differs from the reference", name)
	}

	gotCons, gotErr := got.MapConstraints(cons)
	refCons, refErr := ref.MapConstraints(cons)
	if fmt.Sprint(gotErr) != fmt.Sprint(refErr) || !reflect.DeepEqual(gotCons, refCons) {
		t.Fatalf("%s: MapConstraints gives %+v, %v; reference %+v, %v", name, gotCons, gotErr, refCons, refErr)
	}

	opts := core.DefaultModelOptions()
	gotGM, refGM := m, m
	if got.Grouped != inst {
		if gotGM, err = core.NewModel(got.Grouped, opts); err != nil {
			t.Fatal(err)
		}
		if refGM, err = core.NewModel(ref.Grouped, opts); err != nil {
			t.Fatal(err)
		}
	}
	gp := randomLayout(r, gotGM)
	gotExp, err := got.Expand(gotGM, m, gp)
	if err != nil {
		t.Fatalf("%s: Expand: %v", name, err)
	}
	refExp, err := core.ReferenceExpand(ref, refGM, m, gp)
	if err != nil {
		t.Fatalf("%s: reference Expand: %v", name, err)
	}
	if !reflect.DeepEqual(gotExp, refExp) {
		t.Fatalf("%s: Expand differs from the reference", name)
	}
	op := randomLayout(r, m)
	gotRed, err := got.Reduce(m, gotGM, op)
	if err != nil {
		t.Fatalf("%s: Reduce: %v", name, err)
	}
	refRed, err := core.ReferenceReduce(ref, m, refGM, op)
	if err != nil {
		t.Fatalf("%s: reference Reduce: %v", name, err)
	}
	if !reflect.DeepEqual(gotRed, refRed) {
		t.Fatalf("%s: Reduce differs from the reference", name)
	}
}
