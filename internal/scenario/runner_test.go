package scenario

import (
	"context"
	"fmt"
	"testing"

	"vpart/internal/core"
	"vpart/internal/ingest"
)

// fakeAdvisor is a deterministic stand-in for the real Session-backed advisor:
// it folds stream batches through a real ingest pipeline, applies drift deltas
// with core.ApplyDelta, and "re-solves" by merely carrying its incumbent onto
// the current constrained model and repairing it (SingleSite on the cold
// start). It never optimises, which makes its reactions easy to predict.
type fakeAdvisor struct {
	inst  *core.Instance
	pipe  *ingest.Pipeline
	cons  *core.Constraints
	m     *core.Model // the model p was computed over
	p     *core.Partitioning
	sites int

	resolves    int
	applies     int
	adoptions   int
	consUpdates int
}

func newFakeAdvisor(t *testing.T, base *core.Instance, sites, epochEvents int, withPipe bool) *fakeAdvisor {
	t.Helper()
	f := &fakeAdvisor{inst: base, sites: sites}
	if withPipe {
		cfg := ingest.DefaultConfig()
		cfg.EpochEvents = epochEvents
		pipe, err := ingest.New(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pipe.Close)
		f.pipe = pipe
	}
	return f
}

func (f *fakeAdvisor) Instance() *core.Instance                     { return f.inst }
func (f *fakeAdvisor) Incumbent() (*core.Model, *core.Partitioning) { return f.m, f.p }

func (f *fakeAdvisor) Ingest(events []ingest.Event) error {
	epochs, err := f.pipe.Ingest(events)
	if err != nil {
		return err
	}
	if len(epochs) == 0 {
		ep, err := f.pipe.FlushEpoch()
		if err != nil {
			return err
		}
		if ep != nil {
			epochs = append(epochs, *ep)
		}
	}
	for i := range epochs {
		next, err := core.ApplyDelta(f.inst, epochs[i].Delta)
		if err != nil {
			return err
		}
		f.inst = next
	}
	return nil
}

func (f *fakeAdvisor) Apply(delta core.WorkloadDelta) error {
	f.applies++
	next, err := core.ApplyDelta(f.inst, delta)
	if err != nil {
		return err
	}
	f.inst = next
	return nil
}

func (f *fakeAdvisor) UpdateConstraints(cons *core.Constraints) error {
	f.consUpdates++
	f.cons = cons
	return nil
}

func (f *fakeAdvisor) model() (*core.Model, error) {
	return core.NewModelConstrained(f.inst, core.DefaultModelOptions(), f.cons)
}

// Adopt mirrors the real Session: the anchor must already satisfy the current
// constraints — the runner's degraded layouts are required to arrive legal.
func (f *fakeAdvisor) Adopt(p *core.Partitioning) error {
	f.adoptions++
	m, err := f.model()
	if err != nil {
		return err
	}
	if err := m.CheckConstraintsPartial(p); err != nil {
		return err
	}
	adapted, err := core.Carry(nil, p, m)
	if err != nil {
		return err
	}
	adapted.Repair(m)
	if err := adapted.Validate(m); err != nil {
		return err
	}
	f.m, f.p = m, adapted
	return nil
}

func (f *fakeAdvisor) Resolve(ctx context.Context) (ResolveInfo, error) {
	if err := ctx.Err(); err != nil {
		return ResolveInfo{}, err
	}
	f.resolves++
	m, err := f.model()
	if err != nil {
		return ResolveInfo{}, err
	}
	warm := f.p != nil
	from, seed := f.m, f.p
	if !warm {
		from, seed = m, core.SingleSite(m, f.sites)
	}
	adapted, err := core.Carry(from, seed, m)
	if err != nil {
		return ResolveInfo{}, err
	}
	adapted.Repair(m)
	if adapted.Validate(m) == nil {
		f.m, f.p = m, adapted
		return ResolveInfo{Warm: warm, Cost: m.Evaluate(adapted).Balanced}, nil
	}
	// The warm seed no longer fits the constraints (the real Session rejects
	// such hints and solves cold): fall back to the first everything-on-one-
	// site layout that validates.
	for s := 0; s < f.sites; s++ {
		cand := core.NewPartitioning(m.NumTxns(), m.NumAttrs(), f.sites)
		for t := range cand.TxnSite {
			cand.TxnSite[t] = s
		}
		for a := range cand.AttrSites {
			cand.AttrSites[a][s] = true
		}
		if cand.Validate(m) == nil {
			f.m, f.p = m, cand
			return ResolveInfo{Warm: false, Cost: m.Evaluate(cand).Balanced}, nil
		}
	}
	return ResolveInfo{}, fmt.Errorf("fake advisor: no feasible fallback layout")
}

func runWith(t *testing.T, spec Spec, withPipe bool) (*Result, *fakeAdvisor) {
	t.Helper()
	var fake *fakeAdvisor
	norm := spec.Normalized()
	res, err := Run(context.Background(), spec, func(base *core.Instance) (Advisor, error) {
		fake = newFakeAdvisor(t, base, norm.Sites, norm.EventsPerEpoch, withPipe)
		return fake, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, fake
}

func TestRunSiteLossYCSB(t *testing.T) {
	spec := Spec{
		Name:           "loss",
		Traffic:        TrafficYCSB,
		Seed:           7,
		Sites:          3,
		Epochs:         5,
		EventsPerEpoch: 1500,
		Shapes:         512,
		// SingleSite homes everything on site 0, so losing it orphans the
		// whole layout: the injection epoch must surface faults.
		Actions: []Action{{Kind: SiteLoss, Epoch: 2, Site: 0}},
	}
	res, fake := runWith(t, spec, true)

	if res.FirstActionEpoch != 2 {
		t.Fatalf("FirstActionEpoch = %d, want 2", res.FirstActionEpoch)
	}
	if len(res.Epochs) != 5 {
		t.Fatalf("got %d epochs, want 5", len(res.Epochs))
	}
	if res.Epochs[2].Action != "site-loss(site=0)" {
		t.Fatalf("epoch 2 action = %q", res.Epochs[2].Action)
	}
	for e := 0; e < 2; e++ {
		st := res.Epochs[e]
		if st.Action != "" {
			t.Fatalf("epoch %d has unexpected action %q", e, st.Action)
		}
		if st.StaleCost != st.AdvisorCost || st.Ratio != 1 {
			t.Fatalf("epoch %d diverged before the first action: %+v", e, st)
		}
		if st.StaleFaults != 0 || st.AdvisorFaults != 0 {
			t.Fatalf("epoch %d has faults before the loss: %+v", e, st)
		}
		if st.Events == 0 {
			t.Fatalf("epoch %d replayed no events", e)
		}
	}
	// The injection epoch replays under the pre-loss layouts with the site
	// down: both sides fault.
	if res.Epochs[2].StaleFaults == 0 || res.Epochs[2].AdvisorFaults == 0 {
		t.Fatalf("injection epoch surfaced no faults: %+v", res.Epochs[2])
	}
	// Both sides took the mechanical failover, so later epochs are clean.
	for e := 3; e < 5; e++ {
		st := res.Epochs[e]
		if st.StaleFaults != 0 || st.AdvisorFaults != 0 {
			t.Fatalf("epoch %d still faulting after failover: %+v", e, st)
		}
	}

	if fake.consUpdates != 1 || fake.cons == nil {
		t.Fatalf("advisor saw %d constraint updates, want 1", fake.consUpdates)
	}
	if len(fake.cons.ForbidAttrs) == 0 {
		t.Fatal("no forbid constraints after the site loss")
	}
	for _, fa := range fake.cons.ForbidAttrs {
		if fa.Site != 0 {
			t.Fatalf("forbid targets site %d, want 0", fa.Site)
		}
	}
	if fake.adoptions != 1 {
		t.Fatalf("advisor saw %d adoptions, want 1", fake.adoptions)
	}
	// The final incumbent respects the forbids.
	for a := range fake.p.AttrSites {
		if fake.p.AttrSites[a][0] {
			t.Fatalf("attribute %d still replicated on the lost site", a)
		}
	}
	if fake.resolves != 1+spec.Epochs {
		t.Fatalf("advisor saw %d resolves, want %d", fake.resolves, 1+spec.Epochs)
	}
	if res.CumStalePost <= 0 || res.CumAdvisorPost <= 0 {
		t.Fatalf("post-action cost sums not accumulated: %+v", res)
	}

	// Bit-identical reproducibility: a second run from scratch fingerprints
	// the same.
	res2, _ := runWith(t, spec, true)
	if res.Fingerprint() != res2.Fingerprint() {
		t.Fatal("two runs of the same spec produced different fingerprints")
	}
}

func TestRunCapacityShrink(t *testing.T) {
	const cap = 600 // YCSB total width is 1008: a real eviction
	spec := Spec{
		Name:           "shrink",
		Traffic:        TrafficYCSB,
		Seed:           11,
		Sites:          3,
		Epochs:         4,
		EventsPerEpoch: 1000,
		Shapes:         512,
		Actions:        []Action{{Kind: CapacityShrink, Epoch: 2, Site: 0, Bytes: cap}},
	}
	res, fake := runWith(t, spec, true)

	if res.Epochs[2].Action != "capacity-shrink(site=0,bytes=600)" {
		t.Fatalf("epoch 2 action = %q", res.Epochs[2].Action)
	}
	if fake.cons == nil || len(fake.cons.SiteCapacities) != 1 {
		t.Fatalf("advisor constraints after shrink: %+v", fake.cons)
	}
	got := fake.cons.SiteCapacities[0]
	if got.Site != 0 || got.Bytes != cap {
		t.Fatalf("capacity constraint = %+v", got)
	}
	// The final incumbent fits the budget under the final model.
	m, err := fake.model()
	if err != nil {
		t.Fatal(err)
	}
	if usage := core.SiteWidthUsage(m, fake.p); usage[0] > cap {
		t.Fatalf("final incumbent uses %d bytes on the shrunk site (cap %d)", usage[0], cap)
	}
	// Capacity loss degrades locality but never availability.
	for _, st := range res.Epochs {
		if st.StaleFaults != 0 || st.AdvisorFaults != 0 {
			t.Fatalf("capacity shrink caused faults: %+v", st)
		}
	}
}

func TestRunDriftBurst(t *testing.T) {
	spec := Spec{
		Name:        "burst",
		Traffic:     TrafficDrift,
		Seed:        5,
		Sites:       3,
		Epochs:      4,
		DriftTables: 6,
		DriftTxns:   12,
		Actions:     []Action{{Kind: DriftBurst, Epoch: 2, Steps: 3}},
	}
	res, fake := runWith(t, spec, false)

	// One background delta per epoch plus the burst surplus.
	if want := spec.Epochs + 3; fake.applies != want {
		t.Fatalf("advisor saw %d deltas, want %d", fake.applies, want)
	}
	if res.Epochs[2].Action != "drift-burst(steps=3)" {
		t.Fatalf("epoch 2 action = %q", res.Epochs[2].Action)
	}
	for e, st := range res.Epochs {
		if st.Events == 0 {
			t.Fatalf("epoch %d replayed no transactions", e)
		}
		if st.StaleCost <= 0 || st.AdvisorCost <= 0 {
			t.Fatalf("epoch %d has non-positive realized cost: %+v", e, st)
		}
	}

	res2, _ := runWith(t, spec, false)
	if res.Fingerprint() != res2.Fingerprint() {
		t.Fatal("two drift runs produced different fingerprints")
	}
}

func TestRunFreezeDiverges(t *testing.T) {
	// Without actions the stale layout is frozen after FreezeAfter but the
	// advisor keeps re-solving; with the non-optimising fake both stay equal,
	// so every ratio is exactly 1 — the control loop itself adds no noise.
	spec := Spec{
		Name:           "quiet",
		Traffic:        TrafficSocial,
		Seed:           3,
		Sites:          3,
		Epochs:         3,
		EventsPerEpoch: 800,
		Shapes:         256,
	}
	res, _ := runWith(t, spec, true)
	if res.FirstActionEpoch != -1 || res.RecoveryEpochs != -1 {
		t.Fatalf("quiet run has action bookkeeping: %+v", res)
	}
	if res.CumStalePost != 0 || res.CumAdvisorPost != 0 {
		t.Fatalf("quiet run accumulated post-action sums: %+v", res)
	}
	for e, st := range res.Epochs {
		if st.Ratio != 1 {
			t.Fatalf("epoch %d ratio %g with a non-optimising advisor", e, st.Ratio)
		}
		if !st.ResolveWarm {
			t.Fatalf("epoch %d re-solve ran cold", e)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	ok := func(base *core.Instance) (Advisor, error) { return nil, nil }
	if _, err := Run(context.Background(), Spec{}, ok); err == nil {
		t.Fatal("invalid spec accepted")
	}
	spec := validSpec()
	if _, err := Run(context.Background(), spec, nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, spec, func(base *core.Instance) (Advisor, error) {
		return newFakeAdvisor(t, base, spec.Sites, spec.Normalized().EventsPerEpoch, true), nil
	}); err == nil {
		t.Fatal("cancelled context not honoured")
	}
}
