package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"vpart"
	"vpart/internal/conc"
	"vpart/internal/core"
	"vpart/internal/daemon/server"
	"vpart/internal/engine"
	"vpart/internal/ingest"
	"vpart/internal/randgen"
)

// liveSpec is a live-loop workload: a pre-encoded NDJSON event stream, one
// body per epoch, folded into a session that re-solves warm every epoch.
type liveSpec struct {
	stream randgen.YCSBParams
	batch  int // events per NDJSON body (one body per epoch)
	epochs int
	sites  int
	topK   int
	spikes []spike
}

// spike arms a flash-crowd hot-key spike for epochs [from, until).
type spike struct {
	from, until int
	magnitude   float64
	keys        int
}

// liveSolveSeed is the solver seed of the live session. The workload seed
// varies only the event stream.
const liveSolveSeed = 1

// liveLeastPasses is the fewest passes an untraced live run makes, so the
// epoch percentiles rest on at least two samples of every epoch.
const liveLeastPasses = 2

// liveInput is a live workload's prepared stream. The bodies live in one
// anonymous memory mapping outside the Go heap, as a daemon's request bodies
// would live outside the advisor, so heap_peak_mb measures the advisor alone.
type liveInput struct {
	base   *core.Instance
	arena  []byte
	bodies [][]byte
	digest [sha256.Size]byte
}

// release unmaps the bodies; the input must not be used afterwards.
func (in *liveInput) release() error {
	in.bodies = nil
	return syscall.Munmap(in.arena)
}

func buildLiveInput(spec liveSpec, seed int64) (*liveInput, error) {
	stream, err := randgen.NewYCSB(spec.stream, seed)
	if err != nil {
		return nil, err
	}
	events := make([]ingest.Event, spec.batch)
	var encoded [][]byte
	size := 0
	var buf bytes.Buffer
	for e := 0; e < spec.epochs; e++ {
		for _, s := range spec.spikes {
			switch e {
			case s.from:
				err = stream.SetSpike(s.magnitude, s.keys)
			case s.until:
				err = stream.SetSpike(0, 0)
			}
			if err != nil {
				return nil, err
			}
		}
		stream.Fill(events)
		buf.Reset()
		enc := json.NewEncoder(&buf)
		for i := range events {
			ev := &events[i]
			if err := enc.Encode(server.EventDTO{Txn: ev.Txn, Query: ev.Query, Kind: ev.Kind, Accesses: ev.Accesses}); err != nil {
				return nil, err
			}
		}
		encoded = append(encoded, bytes.Clone(buf.Bytes()))
		size += buf.Len()
	}
	arena, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map bodies: %w", err)
	}
	in := &liveInput{base: stream.Base(), arena: arena}
	sum := sha256.New()
	off := 0
	for _, b := range encoded {
		body := arena[off : off+len(b) : off+len(b)]
		copy(body, b)
		in.bodies = append(in.bodies, body)
		sum.Write(body)
		off += len(b)
	}
	copy(in.digest[:], sum.Sum(nil))
	return in, nil
}

// liveLoop is one session with its ingest pipeline and its oracle replayer.
type liveLoop struct {
	sess *vpart.Session
	pipe *ingest.Pipeline
	rep  *engine.Replayer

	realized        float64 // realized balanced objective summed over epochs
	events, skipped int     // events replayed on the oracle, and those skipped
	lastCost        float64 // modelled cost of the latest incumbent
	costSum         float64 // modelled incumbent cost summed over epochs
	epochs          int
}

// meanCost is the incumbents' modelled balanced cost averaged over epochs.
func (l *liveLoop) meanCost() float64 { return l.costSum / float64(l.epochs) }

// newLiveLoop anchors a session over the stream's base instance with a cold
// resolve and builds the ingest pipeline over it. Epochs are closed
// explicitly, once per body.
func newLiveLoop(ctx context.Context, base *core.Instance, spec liveSpec) (*liveLoop, error) {
	sess, err := vpart.NewSession(base, vpart.Options{Sites: spec.sites, Solver: "portfolio", Seed: liveSolveSeed})
	if err != nil {
		return nil, err
	}
	if _, _, err := sess.Resolve(ctx); err != nil {
		return nil, fmt.Errorf("anchor resolve: %w", err)
	}
	pipe, err := ingest.New(sess.Instance(), ingest.Config{
		Shards: 1, EpochEvents: math.MaxInt, TopK: spec.topK,
		SketchWidth: 1 << 15, SketchDepth: 4, ScaleTol: 0.2,
	})
	if err != nil {
		return nil, err
	}
	return &liveLoop{sess: sess, pipe: pipe, rep: engine.NewReplayer(0)}, nil
}

// epochSample is what one epoch measured: the wall time of each step, and
// the process CPU time of the ingest steps (decode and fold), of the resolve,
// and of the epoch latency.
type epochSample struct {
	decode, fold, compact, apply, resolve time.Duration
	ingestCPU, resolveCPU, latencyCPU     time.Duration
	events, ops, churn, iterations        int
	warm, warmRejected, warmStart         bool
	acquires                              int64
}

// latency is the epoch latency: from FlushEpoch to Resolve returning.
func (s epochSample) latency() time.Duration { return s.compact + s.apply + s.resolve }

// total is the epoch's whole blocking path, decode included.
func (s epochSample) total() time.Duration { return s.decode + s.fold + s.latency() }

// epoch runs one epoch — decode, fold, compact, apply, resolve — then prices
// the epoch's events on the oracle under the incumbent that served them. It
// starts from a collected heap, so the epoch does not pay for the oracle's
// garbage. A nil tracer records nothing.
func (l *liveLoop) epoch(ctx context.Context, body []byte, tr *tracer, run int) (epochSample, error) {
	var s epochSample
	runtime.GC()
	served := l.sess.Incumbent()
	acquires := conc.Default().Acquires()
	root := tr.begin("epoch", run, -1)
	events, err := l.blocking(ctx, body, tr, run, root, &s)
	tr.end(root)
	if err != nil {
		return s, err
	}
	s.acquires = conc.Default().Acquires() - acquires
	sp := tr.begin("engine.replay", run, -1)
	err = l.replay(events, served)
	tr.end(sp)
	return s, err
}

// blocking is the part of an epoch the advisor's caller waits for.
func (l *liveLoop) blocking(ctx context.Context, body []byte, tr *tracer, run, root int, s *epochSample) ([]ingest.Event, error) {
	c0, t0 := processCPU(), time.Now()
	sp := tr.begin("server.decode", run, root)
	events, err := server.ParseEventsRequest(body)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	t1 := time.Now()
	sp = tr.begin("ingest.fold", run, root)
	closed, err := l.pipe.Ingest(events)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("fold: %w", err)
	}
	if len(closed) != 0 {
		return nil, fmt.Errorf("fold closed %d epochs on its own", len(closed))
	}
	c2, t2 := processCPU(), time.Now()
	sp = tr.begin("ingest.compact", run, root)
	ep, err := l.pipe.FlushEpoch()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("compact: %w", err)
	}
	if ep == nil {
		return nil, fmt.Errorf("compact: empty epoch")
	}
	t3 := time.Now()
	sp = tr.begin("session.apply", run, root)
	err = l.sess.Apply(ep.Delta)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("apply: %w", err)
	}
	c4, t4 := processCPU(), time.Now()
	sp = tr.begin("session.resolve", run, root)
	sol, stats, err := l.sess.Resolve(ctx)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("resolve: %w", err)
	}
	c5, t5 := processCPU(), time.Now()

	s.decode, s.fold, s.compact, s.apply, s.resolve = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t5.Sub(t4)
	s.ingestCPU, s.resolveCPU, s.latencyCPU = c2-c0, c5-c4, c5-c2
	s.events, s.ops, s.churn = len(events), len(ep.Delta.Ops), ep.Adds+ep.Removes
	s.iterations = sol.Iterations
	s.warm, s.warmRejected, s.warmStart = stats.Warm, stats.WarmRejected != "", stats.WarmStart
	l.lastCost = sol.Cost.Balanced
	l.costSum += sol.Cost.Balanced
	l.epochs++
	return events, nil
}

// replay prices the epoch's known-transaction events on the simulator under
// the layout that served them, padded to the epoch's grown instance, the way
// internal/scenario prices an epoch.
func (l *liveLoop) replay(events []ingest.Event, served *vpart.Solution) error {
	m, err := core.NewModel(l.sess.Instance(), core.DefaultModelOptions())
	if err != nil {
		return err
	}
	if err := l.rep.SetLayout(m, padLayout(m, served.Partitioning)); err != nil {
		return err
	}
	known := make([]ingest.Event, 0, len(events))
	for i := range events {
		if _, ok := m.TxnIndex(events[i].Txn); ok {
			known = append(known, events[i])
		}
	}
	if err := l.rep.Replay(known); err != nil {
		return err
	}
	l.realized += realizedBalanced(l.rep.Mark(), m.Options().Lambda)
	l.events += len(events)
	l.skipped += len(events) - len(known)
	return nil
}

// padLayout extends a layout to the model's grown dimensions as
// internal/scenario does with no site down: new attributes go to site 0, new
// transactions to the site holding the largest width of their read set.
func padLayout(m *core.Model, p *core.Partitioning) *core.Partitioning {
	out := core.NewPartitioning(m.NumTxns(), m.NumAttrs(), p.Sites)
	copy(out.TxnSite, p.TxnSite)
	for a := range p.AttrSites {
		copy(out.AttrSites[a], p.AttrSites[a])
	}
	for a := len(p.AttrSites); a < m.NumAttrs(); a++ {
		out.AttrSites[a][0] = true
	}
	for t := len(p.TxnSite); t < m.NumTxns(); t++ {
		best, bestW := 0, -1
		for s := 0; s < p.Sites; s++ {
			w := 0
			for _, a := range m.TxnReadAttrs(t) {
				if out.AttrSites[a][s] {
					w += m.Attr(a).Width
				}
			}
			if w > bestW {
				best, bestW = s, w
			}
		}
		out.TxnSite[t] = best
	}
	return out
}

// runLive runs the live workload: whole passes over the stream, each on a
// freshly anchored session, for as many passes as the configured time holds,
// and at least one.
func runLive(ctx context.Context, spec liveSpec, cfg runConfig) (*runResult, error) {
	out := newRunResult()
	var in *liveInput
	var first *liveLoop
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := processCPU()
		next, err := buildLiveInput(spec, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		loop, err := newLiveLoop(ctx, next.base, spec)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (processCPU() - start).Seconds())
		if in != nil {
			out.check(next.digest == in.digest, "setup %d encoded a different stream from the same seed", i)
			if err := in.release(); err != nil {
				return nil, err
			}
		}
		in, first = next, loop
	}
	defer in.release() // an unmap failure at the end of the run changes no result
	out.values["setup_s"] = median(setups)

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	var heapPeak float64
	var samples, tracedSamples []epochSample
	var realized, cost float64
	var traced *liveLoop
	least := liveLeastPasses
	if cfg.traced {
		least = 1 // a traced pass runs two sessions in lockstep
	}
	err := rounds(cfg.duration, least, func(pass int) error {
		loop := first
		first = nil // each pass holds one session, so heap_peak_mb does not grow with passes
		if pass > 0 {
			var err error
			if loop, err = newLiveLoop(ctx, in.base, spec); err != nil {
				return err
			}
		}
		defer loop.pipe.Close()
		if tr != nil {
			var err error
			if traced, err = newLiveLoop(ctx, in.base, spec); err != nil {
				return err
			}
			defer traced.pipe.Close()
		}
		if !cfg.traced {
			// Every pass samples the same work: its epochs, from a collected
			// heap, with the session already anchored.
			runtime.GC()
			heap := startHeapSampler()
			defer func() { heapPeak = max(heapPeak, heap.stopMB()) }()
		}
		for e, body := range in.bodies {
			s, err := loop.epoch(ctx, body, nil, 0)
			if !out.op(err) {
				return fmt.Errorf("pass %d epoch %d: %w", pass, e, err)
			}
			out.check(s.warm && !s.warmRejected, "pass %d epoch %d: resolve was not warm", pass, e)
			samples = append(samples, s)
			if traced == nil {
				continue
			}
			ts, err := traced.epoch(ctx, body, tr, len(tracedSamples))
			if !out.op(err) {
				return fmt.Errorf("pass %d traced epoch %d: %w", pass, e, err)
			}
			out.check(traced.lastCost == loop.lastCost, "pass %d epoch %d: traced cost %v differs from untraced %v", pass, e, traced.lastCost, loop.lastCost)
			tracedSamples = append(tracedSamples, ts)
		}
		if pass == 0 {
			realized, cost = loop.realized, loop.meanCost()
		} else {
			out.check(loop.realized == realized, "pass %d: realized_cost %v differs from pass 0's %v", pass, loop.realized, realized)
			out.check(loop.meanCost() == cost, "pass %d: solve_cost %v differs from pass 0's %v", pass, loop.meanCost(), cost)
		}
		if traced != nil {
			out.check(traced.realized == loop.realized, "pass %d: traced realized_cost %v differs from untraced %v", pass, traced.realized, loop.realized)
		}
		return nil
	})
	if !cfg.traced {
		out.values["heap_peak_mb"] = heapPeak
	}
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		return out, tracedLive(tr, samples, tracedSamples, traced, cfg, out)
	}

	var events int
	var busy time.Duration
	var lat, resolve []float64
	for _, s := range samples {
		events += s.events
		busy += s.ingestCPU
		lat = append(lat, s.latencyCPU.Seconds()*1e3)
		resolve = append(resolve, s.resolveCPU.Seconds())
	}
	out.values["solve_cpu_s"] = median(resolve)
	out.values["solve_cost"] = cost
	out.values["ingest_events_per_cpu_s"] = float64(events) / busy.Seconds()
	out.values["epoch_cpu_p50_ms"] = quantile(lat, 0.5)
	out.values["epoch_cpu_p90_ms"] = quantile(lat, 0.9)
	out.values["realized_cost"] = realized
	out.notef("epochs %d over %d passes (closed loop, one caller; %d events each); p90 has %d epochs beyond it",
		len(samples), len(samples)/len(in.bodies), spec.batch, len(samples)/10)
	return out, nil
}

// tracedLive derives the per-layer metrics from the traced epochs.
func tracedLive(tr *tracer, untraced, traced []epochSample, loop *liveLoop, cfg runConfig, out *runResult) error {
	tree := newSpanTree(tr.snapshot())
	if err := tree.check(); !out.op(err) {
		return fmt.Errorf("trace: %w", err)
	}
	n := float64(len(traced))
	block := tree.blocking("epoch")
	var decode, fold, apply time.Duration
	var events, ops, churn, iterations, warmWins int
	var acquires int64
	for _, s := range traced {
		decode += s.decode
		fold += s.fold
		apply += s.apply
		events += s.events
		ops += s.ops
		churn += s.churn
		iterations += s.iterations
		acquires += s.acquires
		if s.warmStart {
			warmWins++
		}
	}
	v := out.values
	for _, layer := range []string{"server.decode", "ingest.fold", "ingest.compact", "session.apply", "session.resolve"} {
		v[layer+"_s"] = block[layer] / n
	}
	v["server.decode_us_per_event"] = decode.Seconds() / float64(events) * 1e6
	v["ingest.fold_events_per_s"] = float64(events) / fold.Seconds()
	v["ingest.churn_ops"] = float64(churn) / n
	st := loop.pipe.Stats()
	v["ingest.tracked"] = float64(st.Tracked)
	v["ingest.state_bytes"] = float64(st.StateBytes)
	v["session.apply_us_per_op"] = apply.Seconds() / float64(max(ops, 1)) * 1e6
	v["session.resolve_iterations"] = float64(iterations) / n
	v["session.warm_win_ratio"] = float64(warmWins) / n
	v["conc.high_water"] = float64(conc.Default().HighWater())
	v["conc.acquires"] = float64(acquires) / n
	v["engine.replay_s"] = tree.total("engine.replay").Seconds() / n
	v["engine.skipped_ratio"] = float64(loop.skipped) / float64(loop.events)
	var base []float64
	for _, s := range untraced {
		base = append(base, s.total().Seconds())
	}
	finishTrace(tree, "epoch", base, block, out)
	return writeSpans(tr, cfg, out)
}
