package vpart

import (
	"context"

	"vpart/internal/core"
	"vpart/internal/scenario"
)

// The closed-loop scenario harness (internal/scenario) replayed against a
// real Session. A scenario replays epochs of heavy traffic on the engine
// simulator, injects failures from a scripted timeline (site loss, flash
// crowds, capacity shrinks, drift bursts), and measures the realized cost of
// the advisor's re-solved layouts against a deliberately frozen "stale"
// control layout. See RunScenario and the internal/scenario package
// documentation for the epoch protocol.
type (
	// ScenarioSpec is the serialisable description of one closed-loop
	// scenario: traffic family, seed, cluster size, epoch count and the
	// failure timeline.
	ScenarioSpec = scenario.Spec
	// ScenarioAction is one scripted timeline event.
	ScenarioAction = scenario.Action
	// ScenarioActionKind names a timeline action.
	ScenarioActionKind = scenario.ActionKind
	// ScenarioResult is a full scenario run: per-epoch realized costs for the
	// stale and advisor layouts, fault counters, re-solve latencies and the
	// recovery metrics. Its Fingerprint method hashes everything but
	// wall-clock latencies, so fixed-seed runs can be checked for
	// bit-identical reproducibility.
	ScenarioResult = scenario.Result
	// ScenarioEpoch is the measured outcome of one scenario epoch.
	ScenarioEpoch = scenario.EpochStats
)

// The scenario action vocabulary.
const (
	// ScenarioSiteLoss kills a site: its replicas are lost, placements there
	// become forbidden, and both layouts take a mechanical failover.
	ScenarioSiteLoss = scenario.SiteLoss
	// ScenarioFlashCrowd concentrates the event stream on a few shapes for a
	// window of epochs (the randgen spike knob).
	ScenarioFlashCrowd = scenario.FlashCrowd
	// ScenarioCapacityShrink caps a site's bytes, evicting whatever no longer
	// fits.
	ScenarioCapacityShrink = scenario.CapacityShrink
	// ScenarioDriftBurst applies a burst of extra drift deltas in one epoch.
	ScenarioDriftBurst = scenario.DriftBurst
)

// The scenario traffic families.
const (
	// ScenarioTrafficYCSB replays the randgen YCSB-style key-value stream.
	ScenarioTrafficYCSB = scenario.TrafficYCSB
	// ScenarioTrafficSocial replays the randgen social-feed stream.
	ScenarioTrafficSocial = scenario.TrafficSocial
	// ScenarioTrafficDrift replays the modelled workload of a random ClassA
	// instance while a drift trace mutates it.
	ScenarioTrafficDrift = scenario.TrafficDrift
)

// sessionAdvisor adapts a Session (plus, for stream traffic, its Ingestor) to
// the scenario runner's Advisor protocol.
type sessionAdvisor struct {
	sess *Session
	ing  *Ingestor
}

func (sa *sessionAdvisor) Instance() *core.Instance { return sa.sess.Instance() }

func (sa *sessionAdvisor) Incumbent() (*core.Model, *core.Partitioning) {
	if sol := sa.sess.Incumbent(); sol != nil {
		return sol.Model, sol.Partitioning
	}
	return nil, nil
}

func (sa *sessionAdvisor) Ingest(events []QueryEvent) error {
	// The ingestor's epoch length equals the scenario batch size, so each
	// batch normally folds exactly one epoch; flush defensively when the
	// boundary did not fall on the batch.
	epochs, err := sa.ing.Ingest(events)
	if err != nil {
		return err
	}
	if len(epochs) == 0 {
		_, err = sa.ing.FlushEpoch()
	}
	return err
}

func (sa *sessionAdvisor) Apply(delta WorkloadDelta) error { return sa.sess.Apply(delta) }

func (sa *sessionAdvisor) UpdateConstraints(cons *core.Constraints) error {
	return sa.sess.UpdateConstraints(cons)
}

func (sa *sessionAdvisor) Adopt(p *core.Partitioning) error {
	return sa.sess.Adopt(&Solution{Partitioning: p, Solver: "scenario-degrade"})
}

func (sa *sessionAdvisor) Resolve(ctx context.Context) (scenario.ResolveInfo, error) {
	sol, stats, err := sa.sess.Resolve(ctx)
	if err != nil {
		return scenario.ResolveInfo{}, err
	}
	return scenario.ResolveInfo{
		Warm:    stats.Warm && stats.WarmRejected == "",
		Cost:    sol.Cost.Balanced,
		Seconds: stats.Runtime.Seconds(),
	}, nil
}

// RunScenario executes one closed-loop scenario against a real Session built
// from opts: the scenario's traffic is fed through the session's ingestion
// path (stream families) or as typed deltas (drift), failures inject
// placement constraints and degraded warm anchors, and every epoch ends with
// a warm re-solve. opts.Sites is overridden by the spec's cluster size, and a
// zero opts.Seed takes the spec's seed so fixed-seed runs are reproducible:
// with a deterministic solver configuration (non-zero seed, no time limit)
// two runs of the same spec return results with equal Fingerprints.
//
//	res, err := vpart.RunScenario(ctx, vpart.ScenarioSpec{
//	        Name: "loss", Traffic: vpart.ScenarioTrafficYCSB,
//	        Seed: 42, Sites: 4, Epochs: 8,
//	        Actions: []vpart.ScenarioAction{{Kind: vpart.ScenarioSiteLoss, Epoch: 3, Site: 1}},
//	}, vpart.Options{Solver: "sa", Seed: 42})
func RunScenario(ctx context.Context, spec ScenarioSpec, opts Options) (*ScenarioResult, error) {
	spec = spec.Normalized()
	opts.Sites = spec.Sites
	if opts.Seed == 0 {
		opts.Seed = spec.Seed
	}
	stream := spec.Traffic == ScenarioTrafficYCSB || spec.Traffic == ScenarioTrafficSocial
	var ingestors []*Ingestor
	defer func() {
		for _, ig := range ingestors {
			ig.Close()
		}
	}()
	return scenario.Run(ctx, spec, func(base *core.Instance) (scenario.Advisor, error) {
		sess, err := NewSession(base, opts)
		if err != nil {
			return nil, err
		}
		adv := &sessionAdvisor{sess: sess}
		if stream {
			cfg := DefaultIngestConfig()
			cfg.EpochEvents = spec.EventsPerEpoch
			ig, err := sess.NewIngestor(cfg)
			if err != nil {
				return nil, err
			}
			ingestors = append(ingestors, ig)
			adv.ing = ig
		}
		return adv, nil
	})
}
