package scenario

import (
	"context"
	"fmt"

	"vpart/internal/core"
	"vpart/internal/engine"
	"vpart/internal/ingest"
	"vpart/internal/randgen"
)

// ResolveInfo reports one advisor re-solve to the runner.
type ResolveInfo struct {
	// Warm reports whether the re-solve was seeded from the incumbent (and
	// the seed was not rejected).
	Warm bool
	// Cost is the modelled (balanced-objective) cost of the new incumbent.
	Cost float64
	// Seconds is the re-solve's wall-clock latency. Excluded from
	// Result.Fingerprint, so a deterministic advisor may report real time.
	Seconds float64
}

// Advisor is the partitioning advisor under test, as the runner sees it. The
// root vpart package adapts a Session (plus its Ingestor) to this interface;
// tests substitute lightweight fakes. The runner drives exactly this
// protocol, in this order per epoch: constraint updates and Adopt on failure
// reactions, Ingest or Apply for traffic, Resolve at epoch end.
type Advisor interface {
	// Instance returns the advisor's current (drifted) instance; the runner
	// compiles its observed cost model from it. Read-only.
	Instance() *core.Instance
	// Incumbent returns the current layout (never nil after the first
	// successful Resolve). Read-only.
	Incumbent() *core.Partitioning
	// Ingest folds one epoch's stream batch into the advisor's workload
	// bookkeeping (stream traffic only).
	Ingest(events []ingest.Event) error
	// Apply feeds one typed workload delta (drift traffic only).
	Apply(delta core.WorkloadDelta) error
	// UpdateConstraints replaces the advisor's placement-constraint set with
	// the cumulative operational constraints (site forbids, capacities).
	UpdateConstraints(cons *core.Constraints) error
	// Adopt installs a degraded layout as the warm anchor for the next
	// Resolve. The layout satisfies the constraint set last passed to
	// UpdateConstraints.
	Adopt(p *core.Partitioning) error
	// Resolve re-partitions and installs a new incumbent.
	Resolve(ctx context.Context) (ResolveInfo, error)
}

// Factory builds the advisor under test over the scenario's base instance
// (the stream's skeleton instance for stream traffic, the generated ClassA
// instance for drift traffic).
type Factory func(base *core.Instance) (Advisor, error)

// realizedBalanced scores one epoch's measured replay with the balanced
// objective (6) over realized quantities — λ·(R + W + p·B) + (1-λ)·max_s
// site-bytes, with the paper-default λ — so the realized comparison uses the
// same currency the advisor's solver minimises.
func realizedBalanced(m engine.Measured) float64 {
	maxSite := 0.0
	for _, b := range m.SiteBytes {
		if b > maxSite {
			maxSite = b
		}
	}
	lambda := core.DefaultModelOptions().Lambda
	return lambda*m.PenalisedCost + (1-lambda)*maxSite
}

// Run executes one closed-loop scenario (see the package documentation for
// the epoch protocol) and returns its measured Result. The run is sequential
// and deterministic given the spec and a deterministic advisor; ctx is
// checked every epoch and passed to every advisor re-solve.
func Run(ctx context.Context, spec Spec, factory Factory) (*Result, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		return nil, fmt.Errorf("scenario %s: nil advisor factory", spec.Name)
	}

	var (
		stream *randgen.EventStream
		trace  []core.WorkloadDelta
		base   *core.Instance
		err    error
	)
	switch spec.Traffic {
	case TrafficYCSB:
		stream, err = randgen.NewYCSB(randgen.YCSBParams{Shapes: spec.Shapes}, spec.Seed)
	case TrafficSocial:
		stream, err = randgen.NewSocial(randgen.SocialParams{Shapes: spec.Shapes}, spec.Seed)
	case TrafficDrift:
		base, err = randgen.Generate(randgen.ClassA(spec.DriftTables, spec.DriftTxns, 10), spec.Seed)
		if err == nil {
			total := spec.Epochs // one background delta per epoch …
			for _, a := range spec.Actions {
				if a.Kind == DriftBurst {
					total += a.Steps // … plus the burst surplus
				}
			}
			trace, err = randgen.Drift(base, total, spec.DriftChurn, spec.Seed+1)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s: traffic: %w", spec.Name, err)
	}
	if stream != nil {
		base = stream.Base()
	}

	adv, err := factory(base)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: advisor factory: %w", spec.Name, err)
	}
	info, err := adv.Resolve(ctx) // the cold anchor solve before epoch 0
	if err != nil {
		return nil, fmt.Errorf("scenario %s: initial resolve: %w", spec.Name, err)
	}
	if adv.Incumbent() == nil {
		return nil, fmt.Errorf("scenario %s: advisor has no incumbent after the initial resolve", spec.Name)
	}

	res := &Result{
		Spec:                  spec,
		InitialResolveSeconds: info.Seconds,
		InitialCost:           info.Cost,
		FirstActionEpoch:      -1,
		RecoveryEpochs:        -1,
	}
	if len(spec.Actions) > 0 {
		res.FirstActionEpoch = spec.Actions[0].Epoch
	}

	staleRep := engine.NewReplayer(spec.Rows)
	advRep := engine.NewReplayer(spec.Rows)
	down := make([]bool, spec.Sites)
	cons := &core.Constraints{}   // cumulative operational constraints
	var staleP *core.Partitioning // the frozen control layout; nil until FreezeAfter
	spikeOff := -1                // epoch at which the armed spike expires
	next := 0                     // next drift-trace delta
	var batch []ingest.Event
	if stream != nil {
		batch = make([]ingest.Event, spec.EventsPerEpoch)
	}

	for e := 0; e < spec.Epochs; e++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st := EpochStats{Epoch: e}

		if stream != nil && e == spikeOff {
			if err := stream.SetSpike(0, 0); err != nil {
				return nil, fmt.Errorf("scenario %s: epoch %d: %w", spec.Name, e, err)
			}
		}

		// Pre-traffic action effects. Site loss marks the site down for this
		// epoch's replay but reacts only at epoch end (the injection epoch runs
		// under the old layouts, surfacing faults); capacity shrink evicts
		// immediately (the bytes are gone now).
		var losses, shrinks []Action
		for _, a := range spec.Actions {
			if a.Epoch != e {
				continue
			}
			if st.Action != "" {
				st.Action += "; "
			}
			st.Action += a.String()
			switch a.Kind {
			case FlashCrowd:
				if err := stream.SetSpike(a.Magnitude, a.Keys); err != nil {
					return nil, fmt.Errorf("scenario %s: epoch %d: %w", spec.Name, e, err)
				}
				spikeOff = e + a.Duration
			case SiteLoss:
				down[a.Site] = true
				losses = append(losses, a)
			case CapacityShrink:
				shrinks = append(shrinks, a)
			case DriftBurst:
				for k := 0; k < a.Steps; k++ {
					if err := adv.Apply(trace[next]); err != nil {
						return nil, fmt.Errorf("scenario %s: epoch %d: drift burst: %w", spec.Name, e, err)
					}
					next++
				}
			}
		}
		for _, a := range shrinks {
			m, err := core.NewModel(adv.Instance(), core.DefaultModelOptions())
			if err != nil {
				return nil, fmt.Errorf("scenario %s: epoch %d: %w", spec.Name, e, err)
			}
			staleP = evictToCapacity(m, padLayout(m, staleP, down), a.Site, a.Bytes, down)
			cons.SiteCapacities = append(cons.SiteCapacities, core.SiteCapacity{Site: a.Site, Bytes: a.Bytes})
			if err := adv.UpdateConstraints(cons.Clone()); err != nil {
				return nil, fmt.Errorf("scenario %s: epoch %d: %w", spec.Name, e, err)
			}
			anchor := evictToCapacity(m, padLayout(m, adv.Incumbent(), down), a.Site, a.Bytes, down)
			if err := adv.Adopt(anchor); err != nil {
				return nil, fmt.Errorf("scenario %s: epoch %d: adopt evicted layout: %w", spec.Name, e, err)
			}
		}

		// One epoch of traffic, fed to the advisor first: the observed model
		// the replay is priced under includes this epoch's observations.
		if stream != nil {
			stream.Fill(batch)
			if err := adv.Ingest(batch); err != nil {
				return nil, fmt.Errorf("scenario %s: epoch %d: ingest: %w", spec.Name, e, err)
			}
		} else if next < len(trace) {
			if err := adv.Apply(trace[next]); err != nil {
				return nil, fmt.Errorf("scenario %s: epoch %d: drift: %w", spec.Name, e, err)
			}
			next++
		}

		m, err := core.NewModel(adv.Instance(), core.DefaultModelOptions())
		if err != nil {
			return nil, fmt.Errorf("scenario %s: epoch %d: %w", spec.Name, e, err)
		}
		advP := padLayout(m, adv.Incumbent(), down)
		stalePad := advP // before the freeze both sides run the same layout
		if staleP != nil {
			stalePad = padLayout(m, staleP, down)
		}

		if err := staleRep.SetLayout(m, stalePad); err != nil {
			return nil, fmt.Errorf("scenario %s: epoch %d: stale layout: %w", spec.Name, e, err)
		}
		if err := advRep.SetLayout(m, advP); err != nil {
			return nil, fmt.Errorf("scenario %s: epoch %d: advisor layout: %w", spec.Name, e, err)
		}
		for s := range down {
			if err := staleRep.SetSiteDown(s, down[s]); err != nil {
				return nil, err
			}
			if err := advRep.SetSiteDown(s, down[s]); err != nil {
				return nil, err
			}
		}

		if stream != nil {
			// Replay only events whose transaction the observed workload knows;
			// the tail not yet promoted by the ingestor's top-k is skipped
			// identically on both sides, so the comparison stays fair.
			replay := make([]ingest.Event, 0, len(batch))
			for i := range batch {
				if _, ok := m.TxnIndex(batch[i].Txn); ok {
					replay = append(replay, batch[i])
				}
			}
			res.SkippedEvents += len(batch) - len(replay)
			st.Events = len(replay)
			if err := staleRep.Replay(replay); err != nil {
				return nil, fmt.Errorf("scenario %s: epoch %d: stale replay: %w", spec.Name, e, err)
			}
			if err := advRep.Replay(replay); err != nil {
				return nil, fmt.Errorf("scenario %s: epoch %d: advisor replay: %w", spec.Name, e, err)
			}
		} else {
			if err := staleRep.ReplayWorkload(ctx); err != nil {
				return nil, fmt.Errorf("scenario %s: epoch %d: stale replay: %w", spec.Name, e, err)
			}
			if err := advRep.ReplayWorkload(ctx); err != nil {
				return nil, fmt.Errorf("scenario %s: epoch %d: advisor replay: %w", spec.Name, e, err)
			}
		}
		sm, am := staleRep.Mark(), advRep.Mark()
		if stream == nil {
			st.Events = am.Transactions
		}
		st.StalePenalised, st.AdvisorPenalised = sm.PenalisedCost, am.PenalisedCost
		st.StaleCost, st.AdvisorCost = realizedBalanced(sm), realizedBalanced(am)
		st.Ratio = 1
		if st.StaleCost > 0 {
			st.Ratio = st.AdvisorCost / st.StaleCost
		}
		st.StaleFaults, st.AdvisorFaults = sm.Faults, am.Faults
		st.StaleRemoteReadBytes, st.AdvisorRemoteReadBytes = sm.RemoteReadBytes, am.RemoteReadBytes
		st.StaleDegradedWrites, st.AdvisorDegradedWrites = sm.DegradedWrites, am.DegradedWrites

		// Post-traffic site-loss reaction: both layouts take the mechanical
		// failover; the advisor additionally gets the forbid constraints and
		// the degraded layout as its warm anchor for the re-solve below.
		for _, a := range losses {
			staleP = degradeSiteLoss(m, stalePad, a.Site, down)
			for aid := 0; aid < m.NumAttrs(); aid++ {
				cons.ForbidAttrs = append(cons.ForbidAttrs, core.ForbidAttr{Attr: m.Attr(aid).Qualified, Site: a.Site})
			}
			if err := adv.UpdateConstraints(cons.Clone()); err != nil {
				return nil, fmt.Errorf("scenario %s: epoch %d: %w", spec.Name, e, err)
			}
			if err := adv.Adopt(degradeSiteLoss(m, advP, a.Site, down)); err != nil {
				return nil, fmt.Errorf("scenario %s: epoch %d: adopt degraded layout: %w", spec.Name, e, err)
			}
		}

		// The end-of-epoch re-solve; its incumbent serves the next epoch.
		info, err := adv.Resolve(ctx)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: epoch %d: resolve: %w", spec.Name, e, err)
		}
		st.ResolveSeconds, st.ResolveWarm, st.ResolveCost = info.Seconds, info.Warm, info.Cost
		res.TotalResolveSeconds += info.Seconds

		if e == spec.FreezeAfter {
			staleP = adv.Incumbent().Clone()
		}
		if res.FirstActionEpoch >= 0 && e > res.FirstActionEpoch {
			res.CumStalePost += st.StaleCost
			res.CumAdvisorPost += st.AdvisorCost
			if res.RecoveryEpochs < 0 && st.AdvisorCost < st.StaleCost {
				res.RecoveryEpochs = e - res.FirstActionEpoch
			}
		}
		res.Epochs = append(res.Epochs, st)
	}
	return res, nil
}
