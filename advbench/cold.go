package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"vpart"
	"vpart/internal/conc"
	"vpart/internal/core"
	"vpart/internal/daemon/server"
	"vpart/internal/decompose"
	"vpart/internal/engine"
	"vpart/internal/progress"
	"vpart/internal/randgen"
	"vpart/internal/seeds"
)

// coldSpec is a cold-solve workload. Every request is the body vpartd
// receives on session create — a generated instance plus solver options —
// decoded and solved from scratch.
type coldSpec struct {
	params randgen.Params
	sites  int
	solver string
}

// coldSolveSeed is the solver seed every cold request carries. The workload
// seed varies only the generated instances.
const coldSolveSeed = 1

// coldInstances is how many instances a cold run draws from its seed and
// solves in turn. Cost and solve time vary from instance to instance by about
// a fifth; averaging over eight keeps a run's figures steady across seeds.
const coldInstances = 8

// coldLeastRounds is the fewest rounds an untraced cold run makes, so every
// instance's median solve time has three samples.
const coldLeastRounds = 3

// coldInput is a cold workload's prepared request bodies, one per instance.
type coldInput struct {
	bodies  [][]byte
	queries []int // workload queries per body: the records the decoder reads
}

func buildColdInput(spec coldSpec, seed int64) (*coldInput, error) {
	in := &coldInput{}
	for i := 0; i < coldInstances; i++ {
		inst, err := randgen.Generate(spec.params, seeds.Derive(seed, i))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := core.EncodeInstance(&buf, inst); err != nil {
			return nil, err
		}
		body, err := json.Marshal(server.CreateSessionRequest{
			Name:     fmt.Sprintf("bench-%d", i),
			Instance: buf.Bytes(),
			Options:  server.SessionOptions{Sites: spec.sites, Solver: spec.solver, Seed: coldSolveSeed},
		})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.queries = append(in.queries, inst.NumQueries())
	}
	return in, nil
}

// coldResult is the outcome of one cold request, with the wall time and the
// process CPU time of its decode and its solve.
type coldResult struct {
	decode, solve       time.Duration
	decodeCPU, solveCPU time.Duration
	model               *core.Model
	part                *core.Partitioning
	cost                core.Cost
	iterations          int
}

// coldRequest decodes the body and solves it with vpart.Solve, as vpartd
// does. This is the untraced path the end-to-end metrics time. It starts from
// a collected heap, so no request pays for an earlier one's garbage.
func coldRequest(ctx context.Context, body []byte) (coldResult, error) {
	runtime.GC()
	c0, t0 := processCPU(), time.Now()
	_, inst, opts, err := server.ParseCreateSessionRequest(body)
	if err != nil {
		return coldResult{}, fmt.Errorf("decode: %w", err)
	}
	c1, t1 := processCPU(), time.Now()
	sol, err := vpart.Solve(ctx, inst, opts)
	c2, t2 := processCPU(), time.Now()
	if err != nil {
		return coldResult{}, fmt.Errorf("solve: %w", err)
	}
	if sol.Partitioning == nil {
		return coldResult{}, fmt.Errorf("solve returned no layout")
	}
	return coldResult{
		decode: t1.Sub(t0), solve: t2.Sub(t1), decodeCPU: c1 - c0, solveCPU: c2 - c1,
		model: sol.Model, part: sol.Partitioning, cost: sol.Cost, iterations: sol.Iterations,
	}, nil
}

// coldTrace holds what a traced cold request measures besides its spans.
type coldTrace struct {
	searchWall, searchCPU time.Duration
	groupRatio            float64
	shards                int
	acquires              int64
}

// tracedColdRequest runs the same request as coldRequest, but performs the
// steps of vpart.Solve one by one with a span around each call into a layer.
func tracedColdRequest(ctx context.Context, body []byte, tr *tracer, run int) (coldResult, coldTrace, error) {
	var ct coldTrace
	runtime.GC()
	root := tr.begin("request", run, -1)
	defer tr.end(root)
	sp := tr.begin("server.decode", run, root)
	_, inst, opts, err := server.ParseCreateSessionRequest(body)
	tr.end(sp)
	if err != nil {
		return coldResult{}, ct, fmt.Errorf("decode: %w", err)
	}
	sp = tr.begin("solve", run, root)
	r, err := replaySolve(ctx, inst, opts, tr, run, sp, &ct)
	tr.end(sp)
	return r, ct, err
}

// replaySolve performs the sequence vpart.Solve runs for a cold,
// unconstrained, grouped request: compile, group, grouped compile, search
// (the registered solver, or the decompose pool), expand, validate and
// evaluate.
func replaySolve(ctx context.Context, inst *core.Instance, opts vpart.Options, tr *tracer, run, parent int, ct *coldTrace) (coldResult, error) {
	if opts.Seed == 0 || opts.Constraints != nil || opts.DisableGrouping || opts.Preprocess != "" {
		return coldResult{}, fmt.Errorf("replay covers fixed-seed, unconstrained, grouped solves only")
	}
	mo := vpart.DefaultModelOptions()
	if opts.Model != nil {
		mo = *opts.Model
	}
	sp := tr.begin("core.compile", run, parent)
	orig, err := core.NewModelConstrained(inst, mo, nil)
	tr.end(sp)
	if err != nil {
		return coldResult{}, err
	}
	sp = tr.begin("core.group", run, parent)
	grouping, err := core.GroupAttributesConstrained(inst, nil)
	tr.end(sp)
	if err != nil {
		return coldResult{}, err
	}
	sp = tr.begin("core.compile", run, parent)
	gm, err := core.NewModelConstrained(grouping.Grouped, mo, nil)
	tr.end(sp)
	if err != nil {
		return coldResult{}, err
	}
	ct.groupRatio = float64(gm.NumAttrs()) / float64(orig.NumAttrs())

	acquires := conc.Default().Acquires()
	cpu0, wall0 := processCPU(), time.Now()
	var res *vpart.Result
	if opts.Solver == "decompose" {
		res, ct.shards, err = replayDecompose(ctx, gm, opts, tr, run, parent)
	} else {
		s, ok := vpart.LookupSolver(opts.Solver)
		if !ok {
			return coldResult{}, fmt.Errorf("unknown solver %q", opts.Solver)
		}
		sp = tr.begin("search", run, parent)
		res, err = s.Solve(ctx, gm, opts)
		tr.end(sp)
	}
	ct.searchWall, ct.searchCPU = time.Since(wall0), processCPU()-cpu0
	ct.acquires = conc.Default().Acquires() - acquires
	if err != nil {
		return coldResult{}, err
	}
	if res == nil || res.Partitioning == nil {
		return coldResult{}, fmt.Errorf("search returned no layout")
	}

	sp = tr.begin("core.expand", run, parent)
	final, err := grouping.Expand(gm, orig, res.Partitioning)
	tr.end(sp)
	if err != nil {
		return coldResult{}, err
	}
	sp = tr.begin("core.validate", run, parent)
	err = final.Validate(orig)
	cost := orig.Evaluate(final)
	tr.end(sp)
	if err != nil {
		return coldResult{}, err
	}
	return coldResult{model: orig, part: final, cost: cost, iterations: res.Iterations}, nil
}

// replayDecompose runs the decompose pool with a shard callback that derives
// each shard's seed the way the root decompose solver does and wraps every
// shard's search in a span.
func replayDecompose(ctx context.Context, gm *core.Model, opts vpart.Options, tr *tracer, run, parent int) (*vpart.Result, int, error) {
	name := opts.Decompose.Solver
	if name == "" {
		name = "portfolio"
	}
	inner, ok := vpart.LookupSolver(name)
	if !ok {
		return nil, 0, fmt.Errorf("unknown shard solver %q", name)
	}
	dec := tr.begin("decompose", run, parent)
	defer tr.end(dec)
	res, err := decompose.Solve(ctx, gm, decompose.Options{
		Workers: opts.Decompose.Workers,
		SolveShard: func(ctx context.Context, shard int, sm *core.Model, _ *core.Partitioning, prog progress.Func) (*decompose.ShardOutcome, error) {
			shardOpts := opts
			shardOpts.Solver = name
			shardOpts.Seed = seeds.Derive(opts.Seed, shard)
			shardOpts.Progress = prog
			shardOpts.Warm, shardOpts.WarmDirty = nil, nil
			sp := tr.begin("search", run, dec)
			r, err := inner.Solve(ctx, sm, shardOpts)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			return &decompose.ShardOutcome{
				Partitioning: r.Partitioning, Cost: r.Cost, Solver: r.Solver, Seed: r.Seed,
				Optimal: r.Optimal, TimedOut: r.TimedOut, Iterations: r.Iterations, Nodes: r.Nodes,
			}, nil
		},
	})
	if err != nil {
		return nil, 0, err
	}
	return &vpart.Result{Partitioning: res.Partitioning, Cost: res.Cost, Iterations: res.Iterations}, len(res.Shards), nil
}

// realizedBalanced scores a measured execution with the balanced objective
// (6) over realized bytes, as internal/scenario scores its epochs.
func realizedBalanced(m engine.Measured, lambda float64) float64 {
	maxSite := 0.0
	for _, b := range m.SiteBytes {
		maxSite = max(maxSite, b)
	}
	return lambda*m.PenalisedCost + (1-lambda)*maxSite
}

// runCold runs a cold workload: set up the requests, then send them in
// rounds, each instance once per round (closed loop, one caller), for as many
// whole rounds as the configured time holds, and at least one.
func runCold(ctx context.Context, spec coldSpec, cfg runConfig) (*runResult, error) {
	out := newRunResult()
	var in *coldInput
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := processCPU()
		next, err := buildColdInput(spec, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (processCPU() - start).Seconds())
		if in != nil {
			out.check(slices.EqualFunc(in.bodies, next.bodies, bytes.Equal), "setup %d built different request bodies from the same seed", i)
		}
		in = next
	}
	out.values["setup_s"] = median(setups)
	if cfg.traced {
		return out, tracedCold(ctx, in, cfg, out)
	}

	runtime.GC() // the discarded setups' garbage is not the advisor's
	heap := startHeapSampler()
	firsts := make([]coldResult, len(in.bodies))
	// Per instance, one CPU time per round: decode and solve.
	decodes := make([][]float64, len(in.bodies))
	solves := make([][]float64, len(in.bodies))
	var lat []float64
	err := rounds(cfg.duration, coldLeastRounds, func(round int) error {
		for i, body := range in.bodies {
			r, err := coldRequest(ctx, body)
			if !out.op(err) {
				return err
			}
			out.check(r.part.Validate(r.model) == nil, "instance %d: layout fails Validate", i)
			if round == 0 {
				firsts[i] = r
			} else {
				out.check(r.cost.Balanced == firsts[i].cost.Balanced, "instance %d round %d: solve_cost %v differs from round 0's %v", i, round, r.cost.Balanced, firsts[i].cost.Balanced)
			}
			decodes[i] = append(decodes[i], r.decodeCPU.Seconds())
			solves[i] = append(solves[i], r.solveCPU.Seconds())
			lat = append(lat, (r.decodeCPU + r.solveCPU).Seconds())
		}
		return nil
	})
	out.values["heap_peak_mb"] = heap.stopMB()
	if err != nil {
		return nil, err
	}

	var solveS, cost, realized []float64
	decode, queries := 0.0, 0
	for i, r := range firsts {
		rc, err := checkOnEngine(ctx, r, out)
		if err != nil {
			return nil, err
		}
		decode += median(decodes[i])
		queries += in.queries[i]
		solveS = append(solveS, median(solves[i]))
		cost = append(cost, r.cost.Balanced)
		realized = append(realized, rc)
	}
	out.values["solve_cpu_s"] = mean(solveS)
	out.values["solve_cost"] = mean(cost)
	out.values["ingest_events_per_cpu_s"] = float64(queries) / decode
	out.values["epoch_cpu_p50_ms"] = quantile(lat, 0.5) * 1e3
	out.values["epoch_cpu_p90_ms"] = quantile(lat, 0.9) * 1e3
	out.values["realized_cost"] = mean(realized)
	out.notef("requests %d over %d instances (closed loop, one caller); p90 has %d requests beyond it",
		len(lat), len(in.bodies), len(lat)/10)
	return out, nil
}

// checkOnEngine executes the layout's workload on the simulator, checks that
// the measured bytes equal the model's A_R, A_W and B, and returns the
// realized balanced objective.
func checkOnEngine(ctx context.Context, r coldResult, out *runResult) (float64, error) {
	meas, _, err := engine.Run(ctx, r.model, r.part, engine.Options{})
	if !out.op(err) {
		return 0, fmt.Errorf("engine: %w", err)
	}
	out.check(meas.ReadBytes == r.cost.ReadAccess && meas.WriteBytes == r.cost.WriteAccess && meas.TransferBytes == r.cost.Transfer,
		"engine measured R=%v W=%v B=%v, Evaluate gives A_R=%v A_W=%v B=%v",
		meas.ReadBytes, meas.WriteBytes, meas.TransferBytes, r.cost.ReadAccess, r.cost.WriteAccess, r.cost.Transfer)
	return realizedBalanced(*meas, r.model.Options().Lambda), nil
}

// tracedCold sends every instance untraced and then traced, in rounds, and
// derives the per-layer metrics from the traced requests.
func tracedCold(ctx context.Context, in *coldInput, cfg runConfig, out *runResult) error {
	tr := newTracer()
	var untraced []float64
	var cts []coldTrace
	var iterations []float64
	queries := 0
	err := rounds(cfg.duration, 1, func(int) error {
		for i, body := range in.bodies {
			u, err := coldRequest(ctx, body)
			if !out.op(err) {
				return err
			}
			untraced = append(untraced, (u.decode + u.solve).Seconds())
			run := len(cts)
			r, ct, err := tracedColdRequest(ctx, body, tr, run)
			if !out.op(err) {
				return err
			}
			out.check(r.cost.Balanced == u.cost.Balanced, "instance %d: traced solve_cost %v differs from untraced %v", i, r.cost.Balanced, u.cost.Balanced)
			out.check(slices.Equal(r.part.TxnSite, u.part.TxnSite), "instance %d: traced layout places transactions differently", i)
			cts = append(cts, ct)
			iterations = append(iterations, float64(r.iterations))
			queries += in.queries[i]

			sp := tr.begin("engine.run", run, -1)
			_, err = checkOnEngine(ctx, r, out)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	tree := newSpanTree(tr.snapshot())
	if err := tree.check(); !out.op(err) {
		return fmt.Errorf("trace: %w", err)
	}
	n := float64(len(cts))
	block := tree.blocking("request")
	var searchWall, searchCPU time.Duration
	var shards, acquires, groupRatio float64
	for _, ct := range cts {
		searchWall += ct.searchWall
		searchCPU += ct.searchCPU
		shards += float64(ct.shards)
		acquires += float64(ct.acquires)
		groupRatio += ct.groupRatio
	}
	v := out.values
	for _, layer := range []string{"core.compile", "core.group", "core.expand", "core.validate", "server.decode"} {
		v[layer+"_s"] = block[layer] / n
	}
	v["core.group_ratio"] = groupRatio / n
	v["search.s"] = block["search"] / n
	v["search.iterations"] = mean(iterations)
	v["search.iters_per_s"] = mean(iterations) * n / tree.total("search").Seconds()
	v["search.cpu_util"] = searchCPU.Seconds() / (searchWall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	v["conc.high_water"] = float64(conc.Default().HighWater())
	v["conc.acquires"] = acquires / n
	v["server.decode_us_per_event"] = block["server.decode"] / float64(queries) * 1e6
	v["engine.run_s"] = tree.total("engine.run").Seconds() / n
	if shards > 0 {
		v["decompose.self_s"] = block["decompose"] / n
		v["decompose.shards"] = shards / n
		maxShard, busy, workers := shardStats(tree)
		v["decompose.shard_max_s"] = maxShard
		v["decompose.idle_ratio"] = 1 - busy/(workers*tree.total("decompose").Seconds())
	}
	finishTrace(tree, "request", untraced, block, out)
	return writeSpans(tr, cfg, out)
}

// shardStats returns, over every decompose span, the mean of the slowest
// shard's time, the summed shard busy time, and the worker count.
func shardStats(tree *spanTree) (maxShard, busy, workers float64) {
	decs := 0
	shards := 0
	for _, s := range tree.spans {
		if s.Name != "decompose" {
			continue
		}
		decs++
		slowest := 0.0
		for _, c := range tree.children[s.ID] {
			d := tree.spans[c].dur().Seconds()
			slowest = max(slowest, d)
			busy += d
			shards++
		}
		maxShard += slowest
	}
	perRun := float64(shards) / float64(decs)
	return maxShard / float64(decs), busy, min(float64(runtime.GOMAXPROCS(0)), perRun)
}
