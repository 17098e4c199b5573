// Package vpart is a vertical partitioning advisor for relational OLTP
// databases with an H-store-like (shared-nothing, main-memory) architecture.
// It is a from-scratch Go implementation of
//
//	R. R. Amossen, "Vertical partitioning of relational OLTP databases using
//	integer programming", ICDE 2010 (arXiv:0911.1691).
//
// Given a schema, a workload (transactions made of read/write queries with
// simple statistics) and a number of sites, the library computes an
// assignment of every transaction to one site and of every attribute
// (column) to one or more sites such that
//
//   - read queries stay single-sited (all attributes a transaction reads are
//     co-located with it),
//   - attributes may be replicated (or not, when a disjoint partitioning is
//     requested),
//   - the estimated cost — bytes read and written by the storage layer plus
//     penalised bytes shipped between sites — is minimised, optionally traded
//     off against balancing the per-site load with the λ parameter.
//
// # Solvers and the registry
//
// Partitioning algorithms implement the Solver interface and plug into a
// package-level registry (RegisterSolver, Solvers, LookupSolver). Three are
// built in:
//
//   - "qp" — the exact algorithm: the paper's linearised 0/1 program solved
//     with the built-in branch-and-bound MIP solver;
//   - "sa" — the scalable simulated annealing heuristic (Algorithm 1);
//   - "sa-par" — parallel tempering: K replicas of the SA chain anneal
//     concurrently at staggered temperatures and periodically exchange
//     incumbents (see below);
//   - "portfolio" — races several independently seeded SA runs, the
//     parallel-tempering solver, and optionally the QP solver, as concurrent
//     goroutines; it cancels the stragglers once a winner is accepted and
//     returns the best incumbent;
//   - "decompose" — splits the instance into the independent components of
//     its access graph and solves them concurrently (see below).
//
// Solve selects a solver by name (Options.Solver), so new algorithms become
// available to every caller — including the bundled CLIs — by registering
// them, without touching the facade.
//
// # Parallel tempering ("sa-par")
//
// The "sa-par" solver runs K replicas of the SA chain (Options.Parallel
// .Replicas, default 4), replica k seeded independently and annealing at
// temperature τ0·1.5^k — replica 0 coldest (exploitation), the hottest
// replica crossing cost barriers the cold ones cannot. Every 2 temperature
// levels, adjacent replicas probabilistically swap their current
// states with the classic parallel-tempering acceptance rule, so a good
// region found at high temperature migrates down the ladder to be refined.
//
// Unusually for a parallel metaheuristic, sa-par is deterministic: a fixed
// (Seed, Replicas) pair reproduces the partitioning bit for bit regardless
// of GOMAXPROCS, machine load or goroutine scheduling. Replicas draw from
// replica-local RNGs (derived from the seed), and all cross-replica
// decisions — the swaps — happen at barriers in replica-index order using
// the colder replica's RNG. Replica concurrency is confined by the shared
// process-wide solver budget (sized to GOMAXPROCS), so nesting sa-par under
// the portfolio or the decompose pool cannot oversubscribe the machine; the
// budget shapes only wall-clock, never the result.
//
// Choosing K: replicas cost linear CPU, so K beyond the core count buys
// ladder coverage but not wall-clock. K=4 (default) suits up to ~8 cores;
// K=8 widens the temperature range for rugged instances with many cores to
// spare; K=1 degenerates to plain "sa". Quality at a fixed seed tracks
// monolithic SA within a few percent (the sapar tests gate one side: at most
// 3 % above SA's cost) — the ladder's payoff is robustness across seeds, not
// a uniformly lower fixed-seed cost. Throughput scaling across GOMAXPROCS is
// measured by `go test -run '^$' -bench . -cpu 1,2,4,8 ./internal/sapar`.
//
// # Preprocessing: reasonable cuts and decomposition
//
// Two cost-preserving reductions run before any solver. The reasonable-cuts
// grouping of Section 4 (GroupAttributes) merges attributes of a table that
// every query treats identically; it is on by default and never changes the
// optimum. A solve groups from the ids its model compile resolved, each
// attribute's list of query ids, so it validates the instance and looks its
// names up once. A grouping that merges nothing is solved over the original
// model, so the instance is compiled once. On top of it, DecomposeInstance
// splits the grouped instance into the connected components of its
// table–transaction access graph: two tables are connected when some
// transaction accesses both. Components share no
// term of objective (4) — every Section 2 coefficient is a sum over (query,
// table) accesses, and the β terms couple a query to all attributes of an
// accessed table but never beyond it — so each component is a standalone
// Instance that can be solved independently, and
// Decomposition.MergeSolutions lifts the per-shard partitionings back
// exactly: the merged breakdown is the original model's evaluation of the
// merged partitioning, bit for bit. One caveat: the load-balancing term of
// objective (6) couples the components through the shared sites, so for
// λ < 1 independently optimal shards are a (usually excellent) heuristic
// for (6), not a proven optimum — unlike grouping, which preserves the
// optimum unconditionally.
//
// The "decompose" meta-solver runs this pipeline inside the registry: shards
// are solved concurrently on a bounded worker pool (Options.Decompose
// configures the inner solver — portfolio by default — and the pool width),
// progress events are re-tagged with shard ids ("decompose/shard[2]/sa"),
// and per-shard outcomes are reported in Solution.Shards. Alternatively,
// Options.Preprocess = PreprocessDecompose wraps any registered solver in
// the same pipeline: each shard is solved by Options.Solver. Besides the
// concurrency, every SA shard works on a strictly smaller move space, which
// tends to both speed up the solve and improve the solution on decomposable
// workloads (see examples/decompose).
//
// # Cost evaluation, full and incremental
//
// NewModel compiles an instance into the paper's Section 2 cost model;
// Model.Evaluate prices any Partitioning from scratch and is the reference
// oracle for every cost in the package. Local search, however, prices
// thousands of small edits per second, so the package also exposes the
// incremental Evaluator: NewEvaluator(model, partitioning) compiles the
// current solution once, and three typed methods then apply one move each —
// ApplyMoveTxn relocates a transaction, ApplyAddReplica and ApplyDropReplica
// edit an attribute's replica set — in time proportional to the cost terms
// the move actually touches (via attribute→transaction and
// attribute→write-query reverse indices compiled into the Model), returning
// the delta of the balanced objective (6). They allocate nothing once the
// journal has grown. All three WriteAccounting modes, the per-site work
// vector and the Appendix A latency extension are maintained exactly. On a
// constrained model, AllowMoveTxn, AllowAddReplica and AllowDropReplica say
// whether a move keeps the placement constraints before it is applied.
//
// Moves are journalled: Undo reverts everything applied since the last
// Commit, which is what a Metropolis accept/reject step needs — a candidate
// is priced by applying its moves and summing their deltas, then kept with
// Commit or dropped with Undo. Undo does not replay the moves: every float
// is restored from the journal, and only the placement bits and integer
// counters are inverted, so rejecting a move costs O(1), plus its
// write-query counters under latency or WriteRelevant accounting. Snapshot and Restore save and reinstate whole states for
// best-incumbent tracking. The SA solver's hot loop is built entirely on this
// API — it performs no Partitioning.Clone and no full Model.Evaluate per
// iteration — and any future local-search solver (tabu, genetic, ...) can
// reuse it unchanged. Its periodic greedy findSolution pass depends only on
// the vector it holds fixed, so the solver remembers each pass kind's last
// result and, when that vector has not changed since, applies the
// remembered result instead of running the pass again; the moves, and so
// every fixed-seed result, are the same.
// Evaluator.Cost assembles the full Cost breakdown of the current state on
// demand, matching Model.Evaluate to floating point accumulation order.
//
// # Online re-partitioning: deltas, warm starts and sessions
//
// The paper treats the workload as a frozen input; a serving system does
// not. The package therefore models workload drift as first-class data: a
// WorkloadDelta is an ordered batch of typed edits — AddQuery, RemoveQuery,
// ScaleFreq, AddAttr — turning one instance into the next. ApplyDelta
// applies it to a plain instance in one private copy: the instance is
// copied once per delta, a transaction or table the first time an op edits
// it, and the input is never mutated. The drifted instance is compiled into
// its cost model the same way the first one was: there is one compile path,
// and a compiled Model never changes after NewModel. The compile resolves
// names once: validation resolves every table and attribute name, and the
// compile builds each query from that resolution.
//
// Solves can start from where the last one ended: Options.Warm carries a
// previous Solution, and every built-in solver exploits it. The SA
// heuristic anneals from the hint in refinement mode — fine-grained moves
// and a cool initial temperature instead of the from-scratch schedule; the
// QP solver prunes against the hint as its initial incumbent; the portfolio
// races warm-seeded against cold-seeded children so a stale basin cannot
// trap the search, and runs only the warm-seeded ones once a warm start has
// won (a hint whose Solution.WarmStart is set); and the decompose
// meta-solver, given Options.WarmDirty
// (the table/transaction names the deltas touched, see WorkloadDelta.Touch),
// re-solves only the components containing a dirty name and reuses the
// projection of the previous solution for the rest, verbatim. The hint is
// matched to the drifted instance by name: a column added to any table but
// the last renumbers the attributes of every later table.
//
// Session ties the loop together: it owns the current instance, its
// compiled model and the incumbent solution. Apply feeds in a delta and
// compiles the drifted instance; Resolve re-partitions warm over that model,
// so a drift step compiles once, and reports per-resolve stats — the
// stale-incumbent baseline, whether the warm path won, shards reused, and
// the incumbent cost trajectory. Adopt installs an externally computed
// solution as the warm anchor (a one-off high-effort portfolio run, or a
// persisted layout after a restart). Drift generates deterministic drift
// traces; examples/online replays one, and TestSessionWarmResolveTracksColdSolve
// gates that warm re-solving never ends costlier than a cold solve from
// scratch at any step of such a trace.
//
// # Ingesting a live workload
//
// Deltas describe workload drift an operator already understands; a live
// system emits raw query events — millions of them, most repeating a small
// set of shapes. Ingestor (over internal/ingest) folds such a stream into a
// Session in bounded memory: events are routed by shape hash to per-shard
// count-min sketches, and only the heavy-hitter shapes surviving a
// space-saving top-k are materialised as real queries. Every
// IngestConfig.EpochEvents events (event-count-based on purpose — epochs
// never consult a clock) the tracked set is compacted by diffing it against
// the session's live instance, emitting a minimal WorkloadDelta
// (AddQuery/RemoveQuery/ScaleFreq) that flows through the same Session.Apply
// and warm-resolve machinery as hand-written deltas:
//
//	sess, _ := vpart.NewSession(inst, vpart.Options{Sites: 4, Solver: "sa", Seed: 1})
//	sess.Resolve(ctx)                                  // cold anchor
//	ig, _ := sess.NewIngestor(vpart.DefaultIngestConfig())
//	for batch := range source {                        // []vpart.QueryEvent
//		epochs, err := ig.Ingest(batch)                // epochs complete as counts cross
//		...
//	}
//	ig.FlushEpoch()                                    // fold the partial epoch
//	sol, stats, _ := sess.Resolve(ctx)                 // warm, priced on the stream
//
// The fold is sharded but deterministic: shards own disjoint shape sets, so
// a fixed seed and shard count produce bit-identical sessions at any
// GOMAXPROCS. randgen provides two synthetic event-stream families for
// testing and benchmarks (NewYCSB, NewSocial); a fixed stream seed replays
// the same events. The sketch fold alone runs at ~10M events/sec on one
// core (BenchmarkFold in internal/ingest); decode plus fold, the
// benchmark's live-ycsb ingest_events_per_cpu_s, runs at ~1.71M events per
// CPU-second (median of ten 50 s runs) on a 2-vCPU shared host, decoding
// each distinct NDJSON line of a batch once. The ingest
// tests gate the state at ≥ 10× smaller than exact counting at a 1M-shape
// universe (TestPipelineStateSmallerThanExactCounting logs ~27× under -v)
// and the sketch-folded solved cost within 5 % of exact.
// vpartd exposes the same path over HTTP — see "Running as a daemon".
//
// # Placement constraints
//
// The paper optimises an unconstrained layout; production clusters rarely
// allow one. Options.Constraints carries a typed, name-based constraint set
// that every registered solver honours:
//
//   - PinTxn / PinAttr pin a transaction's primary site or force an
//     attribute replica onto a site;
//   - ForbidAttr keeps an attribute off a site (compliance placement);
//   - Colocate / Separate force two attributes onto identical site sets or
//     keep them apart entirely;
//   - MaxReplicas caps an attribute's replication factor;
//   - SiteCapacity bounds the bytes stored on a site.
//
// The set references transactions and attributes by name ("Table.Attr"), so
// it survives WorkloadDeltas, serialisation (LoadConstraints /
// SaveConstraints) and the reasonable-cuts grouping: grouping becomes
// profile-aware — attributes with differing constraints never merge, so a
// group inherits its members' constraints and conflicting pins split the
// group — and the set is rewritten onto the group representatives for the
// grouped solve. Compilation into a Model (NewModelConstrained, done by the
// Solve facade for every model of a solve) resolves the names into
// per-transaction and per-attribute allowed-site bitsets, propagates
// transaction pins to the attributes they read, and rejects contradictory
// sets up front.
//
// Enforcement is constructive, not post-hoc: Partitioning.Validate and
// Repair are constraint-aware, the incremental Evaluator exposes O(1)
// AllowMoveTxn / AllowAddReplica / AllowDropReplica checks (plus per-site
// byte tracking), and the SA checks every relocation and replica extension
// with them, so its hot loop never proposes a dead move — and stays
// allocation-free with constraints compiled —, the QP solver fixes pinned
// variables and prunes forbidden branches through its variable bounds, the
// portfolio forwards the set to every child, and the decompose meta-solver
// projects it onto the shards (a cross-component Colocate/Separate welds the
// affected components into one shard; a SiteCapacity, being a shared budget,
// collapses the split). Sessions persist constraints across Apply/Resolve,
// and Session.Adopt rejects anchors that violate them. Repair, the decompose
// merge and the SA search each have one constraint-aware path: an
// unconstrained model carries the nil, empty ConstraintSet, which narrows
// nothing, and an empty set is bit-identical to not passing one.
//
// See examples/constrained for a runnable demo pinning TPC-C's WAREHOUSE
// columns, and cmd/vpart's -constraints/-pin flags for the CLI form.
//
// # Running as a daemon
//
// cmd/vpartd serves sessions over HTTP as a long-running advisor daemon.
// Each named session wraps a Session behind a single-flight worker: POST
// /v1/sessions creates one from an instance + options + constraints document,
// POST /v1/sessions/{name}/deltas streams WorkloadDeltas in (applied to the
// session's model immediately; append ?wait=1 to block until a resolve covers
// the delta), POST /v1/sessions/{name}/events ingests NDJSON query-event
// batches through the session's Ingestor (sketch state, epoch counts and
// heavy-hitter churn surface under /metrics and in the session state), and
// GET /v1/sessions/{name} serves the incumbent Assignment, ResolveStats and
// the cost trajectory without ever blocking on a running solve. A create
// body in the form json.Marshal writes is decoded in one pass, its instance
// in place (ReadInstance decodes instance files the same way), at ~551k
// queries per CPU-second on the cold benchmark's rndAt128x400c8 bodies
// (median of ten 50 s runs on a 2-vCPU shared host; ~95k with
// encoding/json, which still decodes every other body). A configurable
// trigger policy — debounce, pending-op count, the
// Session.Staleness cost-drift estimate, max interval — decides when the
// background re-solve fires, warm-started as described above. GET
// /v1/sessions/{name}/snapshot returns a SessionSnapshot (see below), /metrics
// exposes solve latencies, warm/cold win counts and per-session gauges in the
// Prometheus text format, and /healthz + /readyz run the doctor self-checks.
// SIGHUP reloads the config file (log level and trigger policy apply live);
// SIGTERM drains connections and cancels running solves. See "Running as a
// daemon" in README.md for a curl quickstart, and `vpartd client` for the
// scripted form.
//
// Snapshot serialises a session — current instance, constraints, incumbent
// assignment, resolve history — to JSON; NewSessionFromSnapshot restores it,
// warm anchor included, so a daemon restart (or a migration to another host)
// does not forget what the advisor has learned.
//
// # Cancellation and progress
//
// The whole solve path is context-aware: cancelling the context passed to
// Solve aborts any solver promptly (even inside a single simplex solve) with
// an error wrapping ctx.Err(). Options.TimeLimit is the soft counterpart: it
// stops the search gracefully and returns the best incumbent found so far,
// marked TimedOut — the semantics the paper's "30 minutes per QP solve"
// experiments rely on.
//
// Running solvers report progress as a typed event stream (Options.Progress)
// instead of log lines: EventIncumbent carries the cost of every new best
// solution, EventBound the QP solver's improving lower bound, and
// EventIteration milestone counters, all stamped with the elapsed time.
//
// # Quick start
//
//	inst := vpart.TPCC()
//	sol, err := vpart.Solve(ctx, inst, vpart.Options{
//	        Sites:  3,
//	        Solver: "portfolio",
//	        Progress: func(e vpart.Event) {
//	                if e.Kind == vpart.EventIncumbent {
//	                        fmt.Printf("%s: %.0f after %v\n", e.Solver, e.Cost, e.Elapsed)
//	                }
//	        },
//	})
//	if err != nil { ... }
//	fmt.Printf("cost %.0f bytes, %v\n", sol.Cost.Objective, sol.Runtime)
//	fmt.Println(sol.Partitioning.Format(sol.Model))
//
// See examples/quickstart for a runnable version. The pre-registry entry
// point — the deprecated SolveLegacy shim and its SolveOptions struct —
// has been removed: migrate to Solve(ctx, inst, Options), which keeps
// TimeLimit's soft stop-and-return-best semantics, replaces the printf Log
// hook with the typed Options.Progress stream, and derives distinct seeds
// for Seed-0 calls (pass Seed: 1 explicitly for the old zero-seed
// behaviour).
//
// The package also bundles the TPC-C v5 instance used in the paper's
// evaluation (TPCC), the paper's random instance generator (RandomInstance,
// ClassA, ClassB), an execution simulator that replays a workload against a
// partitioned in-memory row store (Simulate), and JSON (de)serialisation of
// instances and partitionings.
//
// RunScenario closes the loop between advisor and simulator: it replays
// heavy stream traffic against a live Session epoch by epoch, injects
// scripted failures (site loss, flash crowd, capacity shrink, drift burst),
// and measures the realized cost of the re-solved layouts against a frozen
// stale control layout — deterministic given the spec, so fixed-seed runs
// are bit-identical. TestRunScenarioSiteLossEndToEnd runs one scenario per
// failure kind and gates both properties; its held-out drift-burst row also
// runs the portfolio advisor on the drift-burst scenario at seven spec seeds
// the golden file does not pin.
//
// The experiment harness that regenerates every table of the paper lives in
// cmd/vpart-experiments; go run ./cmd/vpart-experiments -table all prints
// them.
//
// # Invariants
//
// Five project-wide invariants — solver determinism, cancellation
// responsiveness, annotated allocation-free hot paths (//vpart:noalloc),
// the daemon lock discipline with a module-wide no-copy rule, and
// progress-callback gating across goroutine boundaries — are enforced by
// the bundled static analyzer:
//
//	go run ./cmd/vpartlint ./...
//
// Deliberate exceptions carry an in-source justification,
//
//	//vpartlint:allow <rule> <reason>
//
// on or directly above the offending line. CI runs the suite on every
// change; see the README's Invariants section and internal/analysis for
// the rule reference.
package vpart
