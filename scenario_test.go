package vpart_test

import (
	"context"
	"fmt"
	"testing"

	"vpart"
)

// benchScenarios is one scenario per failure kind over three traffic
// families, at a given size. The size shrinks epochs and traffic volume, not
// the timeline shape, so every size exercises every action kind.
func benchScenarios(epochs, events, burst int) []vpart.ScenarioSpec {
	return []vpart.ScenarioSpec{
		{
			Name: "site-loss-ycsb", Traffic: vpart.ScenarioTrafficYCSB,
			Seed: 42, Sites: 4, Epochs: epochs, EventsPerEpoch: events, Shapes: 4096,
			Actions: []vpart.ScenarioAction{
				{Kind: vpart.ScenarioSiteLoss, Epoch: 3, Site: 1},
			},
		},
		{
			// The social stream's five query families span four tables of very
			// different widths, so concentrating the mix on a few shapes moves
			// the balanced optimum — a spike on the single-table ycsb stream
			// barely does.
			Name: "flash-crowd-social", Traffic: vpart.ScenarioTrafficSocial,
			Seed: 43, Sites: 4, Epochs: epochs, EventsPerEpoch: events, Shapes: 4096,
			Actions: []vpart.ScenarioAction{
				{Kind: vpart.ScenarioFlashCrowd, Epoch: 3, Magnitude: 0.7, Keys: 8, Duration: 3},
			},
		},
		{
			// The social schema is 592 bytes wide in total; capping one of the
			// four sites at 300 forces a real eviction.
			Name: "capacity-shrink-social", Traffic: vpart.ScenarioTrafficSocial,
			Seed: 44, Sites: 4, Epochs: epochs, EventsPerEpoch: events, Shapes: 4096,
			Actions: []vpart.ScenarioAction{
				{Kind: vpart.ScenarioCapacityShrink, Epoch: 3, Site: 0, Bytes: 300},
			},
		},
		{
			Name: "drift-burst", Traffic: vpart.ScenarioTrafficDrift,
			Seed: 45, Sites: 4, Epochs: epochs,
			Actions: []vpart.ScenarioAction{
				{Kind: vpart.ScenarioDriftBurst, Epoch: 3, Steps: burst},
			},
		},
	}
}

// TestRunScenarioSiteLossEndToEnd drives the closed-loop harness against
// real SA-backed sessions: a small YCSB run with a site loss mid-run, then
// one scenario per failure kind at a quick and a full size. It gates the two
// properties the scenarios exist to show — bit-identical reproducibility of
// fixed-seed runs, and the re-solving advisor realizing no more cost than
// the frozen stale layout over the post-failure window. The held-out
// drift-burst row runs the portfolio advisor on the golden file's
// drift-burst scenario at seven spec seeds the golden file does not pin;
// drift adds columns to random tables, so it fails when a layout is carried
// onto a grown model by index instead of by name. The full and held-out
// rows are skipped under -short.
func TestRunScenarioSiteLossEndToEnd(t *testing.T) {
	type row struct {
		spec   vpart.ScenarioSpec
		full   bool
		solver string
	}
	rows := []row{{spec: vpart.ScenarioSpec{
		Name:           "loss-e2e",
		Traffic:        vpart.ScenarioTrafficYCSB,
		Seed:           42,
		Sites:          3,
		Epochs:         5,
		EventsPerEpoch: 2000,
		Shapes:         4096,
		Actions:        []vpart.ScenarioAction{{Kind: vpart.ScenarioSiteLoss, Epoch: 2, Site: 1}},
	}}}
	for _, spec := range benchScenarios(6, 8000, 4) {
		spec.Name = "quick/" + spec.Name
		rows = append(rows, row{spec: spec})
	}
	for _, spec := range benchScenarios(8, 20000, 6) {
		spec.Name = "full/" + spec.Name
		rows = append(rows, row{spec: spec, full: true})
	}
	heldOut := benchScenarios(8, 8192, 3)[3]
	for seed := heldOut.Seed + 100; seed <= heldOut.Seed+700; seed += 100 {
		spec := heldOut
		spec.Name, spec.Seed = fmt.Sprintf("held-out/drift-burst/seed=%d", seed), seed
		rows = append(rows, row{spec: spec, full: true, solver: "portfolio"})
	}
	for _, tc := range rows {
		spec := tc.spec
		t.Run(spec.Name, func(t *testing.T) {
			if tc.full && testing.Short() {
				t.Skip("full configuration")
			}
			opts := vpart.Options{Solver: "sa", Seed: spec.Seed}
			if tc.solver != "" {
				opts.Solver = tc.solver
			}
			run := func() *vpart.ScenarioResult {
				t.Helper()
				res, err := vpart.RunScenario(context.Background(), spec, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			res := run()

			if len(res.Epochs) != spec.Epochs {
				t.Fatalf("got %d epochs, want %d", len(res.Epochs), spec.Epochs)
			}
			first := spec.Actions[0].Epoch
			if res.FirstActionEpoch != first {
				t.Fatalf("FirstActionEpoch = %d, want %d", res.FirstActionEpoch, first)
			}
			if res.InitialCost <= 0 {
				t.Fatalf("InitialCost = %g, want > 0", res.InitialCost)
			}
			for e, st := range res.Epochs {
				if st.Events == 0 {
					t.Fatalf("epoch %d replayed no events", e)
				}
				if st.StaleCost <= 0 || st.AdvisorCost <= 0 {
					t.Fatalf("epoch %d has non-positive realized cost: %+v", e, st)
				}
				if e > 0 && !st.ResolveWarm {
					t.Fatalf("epoch %d re-solve ran cold (warm anchor rejected?)", e)
				}
				// The epochs after the action must not fault: after a site loss
				// both sides were degraded off the dead site.
				if e > first && (st.StaleFaults != 0 || st.AdvisorFaults != 0) {
					t.Fatalf("epoch %d still faulting after failover: %+v", e, st)
				}
			}
			// Re-solving realizes no more cost than staying on the frozen
			// pre-failure layout.
			if res.CumAdvisorPost > res.CumStalePost {
				t.Fatalf("advisor realized more post-failure cost than the stale layout: %g > %g",
					res.CumAdvisorPost, res.CumStalePost)
			}

			if res2 := run(); res.Fingerprint() != res2.Fingerprint() {
				t.Fatal("two fixed-seed runs produced different fingerprints")
			}
		})
	}
}
