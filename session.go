package vpart

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"vpart/internal/core"
)

// Workload-delta types, re-exported from internal/core. A WorkloadDelta is
// an ordered batch of typed edits — AddQuery, RemoveQuery, ScaleFreq,
// AddAttr — turning one instance into the next; it is the unit of drift a
// Session consumes.
type (
	// WorkloadDelta is an ordered batch of workload/schema edits.
	WorkloadDelta = core.WorkloadDelta
	// DeltaOp is a single edit (sealed: AddQuery, RemoveQuery, ScaleFreq or
	// AddAttr).
	DeltaOp = core.DeltaOp
	// AddQuery appends a query to a transaction (creating the transaction
	// when it does not exist yet).
	AddQuery = core.AddQuery
	// RemoveQuery removes a named query (never a transaction's last one).
	RemoveQuery = core.RemoveQuery
	// ScaleFreq multiplies a query's frequency by a positive factor.
	ScaleFreq = core.ScaleFreq
	// AddAttr appends an attribute to an existing table.
	AddAttr = core.AddAttr
	// DirtySet accumulates the table and transaction names deltas touched;
	// the decompose meta-solver re-solves only components containing a dirty
	// name (see Options.WarmDirty).
	DirtySet = core.DirtySet
)

// ApplyDelta returns a new instance with the delta applied; the input is not
// mutated. Sessions apply deltas for you — use this directly to build drift
// traces or to patch instances outside a session.
func ApplyDelta(inst *Instance, d WorkloadDelta) (*Instance, error) {
	return core.ApplyDelta(inst, d)
}

// Workload-delta (de)serialisation. A delta is a JSON object {"ops": [...]}
// whose ops are a tagged union on the "op" field ("add_query",
// "remove_query", "scale_freq", "add_attr"); this is the wire format the
// vpartd daemon accepts on POST /v1/sessions/{name}/deltas.
var (
	// EncodeDelta writes a workload delta as indented JSON.
	EncodeDelta = core.EncodeDelta
	// DecodeDelta reads a workload delta from JSON (strict: unknown op tags
	// and unknown fields are rejected).
	DecodeDelta = core.DecodeDelta
)

// NewDirtySet returns an empty dirty set for manual Options.WarmDirty
// bookkeeping (sessions maintain one internally).
func NewDirtySet() *DirtySet { return core.NewDirtySet() }

// TrajectoryPoint is one incumbent improvement observed during a resolve.
type TrajectoryPoint struct {
	// Elapsed is the time since the resolve started.
	Elapsed time.Duration
	// Cost is the incumbent's objective value as reported by the solver
	// (balanced objective (6) for the built-in solvers).
	Cost float64
	// Solver tags the emitting solver ("sa", "portfolio/sa+warm[0]", ...).
	Solver string
}

// ResolveStats reports what one Session.Resolve did.
type ResolveStats struct {
	// Resolve is the 1-based resolve counter of the session.
	Resolve int
	// DeltaOps is the number of delta ops applied since the previous
	// resolve (0 on the first).
	DeltaOps int
	// Warm reports whether the resolve was seeded from the previous
	// incumbent; WarmStart whether the winning solver run actually came out
	// of that warm path (false when a cold-seeded portfolio child beat the
	// warm children). The next resolve hands the incumbent's WarmStart on
	// with its hint, so a portfolio session races the cold restarts only
	// until a warm child wins, and again after a rejected hint or an Adopt
	// of a layout without WarmStart.
	Warm      bool
	WarmStart bool
	// WarmRejected explains why a warm-seeded resolve went cold anyway: the
	// Solve facade dropped the incumbent hint (site-count mismatch,
	// un-adaptable dimensions, constraint violation). Empty when the hint
	// was used.
	WarmRejected string
	// StaleCost is the previous incumbent's cost breakdown re-priced under
	// the current (drifted) workload — the "do nothing" baseline a resolve
	// competes against. Zero value on cold resolves.
	StaleCost Cost
	// Cost is the new incumbent's cost breakdown.
	Cost Cost
	// ShardsTotal/ShardsReused report the decompose meta-solver's component
	// count and how many of them were reused verbatim (both zero for
	// non-decomposing solvers).
	ShardsTotal  int
	ShardsReused int
	// Solver names the winning solver run, Seed its SA seed.
	Solver string
	Seed   int64
	// Runtime is the resolve's wall-clock time.
	Runtime time.Duration
	// Trajectory lists the incumbent improvements observed during the
	// resolve, in arrival order (concurrent solvers interleave).
	Trajectory []TrajectoryPoint
}

// Session owns a live partitioning problem: the current instance, its
// compiled cost model and the current incumbent solution. Workload drift is
// fed in as typed deltas (Apply) or as a raw query-event stream folded into
// deltas by a bounded-memory ingestor (NewIngestor); each Apply compiles the
// drifted instance into a new model. Resolve then re-partitions warm over
// that model — seeding the configured solver from the incumbent and, for the
// decompose meta-solver, re-solving only the components the deltas since the
// last resolve touched. Resolve compiles a grouped copy of the instance only
// when reasonable-cuts grouping merges attributes; otherwise it searches the
// model Apply compiled.
//
// A Session is safe for concurrent use: every method serialises on an
// internal mutex, so Apply, Resolve, Adopt and the read accessors may be
// called from any goroutine. Note that Resolve holds the lock for the whole
// solve — a concurrent Apply or Incumbent blocks until it returns. Callers
// that must stay responsive during long solves (the vpartd daemon) therefore
// route all session access through one single-flight worker goroutine and
// serve reads from a snapshot published by that worker; that pattern, not
// lock sharing, is the recommended way to put a Session behind a server.
//
//	sess, _ := vpart.NewSession(inst, vpart.Options{Sites: 4, Solver: "portfolio"})
//	sol, _, _ := sess.Resolve(ctx)                    // cold first solve
//	_ = sess.Apply(vpart.WorkloadDelta{Ops: []vpart.DeltaOp{
//	        vpart.ScaleFreq{Txn: "NewOrder", Query: "q01", Factor: 4},
//	}})
//	sol, stats, _ := sess.Resolve(ctx)                // warm re-solve
//	fmt.Println(stats.Runtime, stats.ShardsReused, stats.Cost.Objective)
type Session struct {
	mu sync.Mutex

	opts      Options
	inst      *Instance
	model     *Model // compiled from inst; Resolve solves over it, Staleness prices with it
	incumbent *Solution
	dirty     *DirtySet
	pending   int // delta ops since the last successful resolve
	resolves  int
	history   []ResolveStats // most recent resolves, capped at historyCap
}

// historyCap bounds Session.History: a long-running session (a daemon serving
// a drifting tenant for weeks) keeps the most recent resolves only, so memory
// stays bounded no matter how long it lives.
const historyCap = 128

// NewSession validates the instance and options, compiles the cost model and
// returns a session with no incumbent (the first Resolve runs cold). The
// options are the base configuration of every resolve: Sites, Solver, Model,
// Preprocess, TimeLimit, Seed and the rest of Options keep their Solve
// semantics; Warm and WarmDirty are managed by the session and must be unset.
func NewSession(inst *Instance, opts Options) (*Session, error) {
	if inst == nil {
		return nil, fmt.Errorf("vpart: session: nil instance")
	}
	if opts.Sites < 1 {
		return nil, fmt.Errorf("vpart: session: invalid site count %d", opts.Sites)
	}
	if opts.Warm != nil || opts.WarmDirty != nil {
		return nil, fmt.Errorf("vpart: session: Options.Warm and Options.WarmDirty are session-managed; leave them unset")
	}
	opts, err := opts.checkConstraints()
	if err != nil {
		return nil, fmt.Errorf("vpart: session: %w", err)
	}
	// The session's model carries the compiled constraints, so Apply keeps
	// them resolved across deltas and Adopt can judge anchors against them.
	model, err := compileModel(inst, opts)
	if err != nil {
		return nil, fmt.Errorf("vpart: session: %w", err)
	}
	return &Session{
		opts:  opts,
		inst:  inst,
		model: model,
		dirty: NewDirtySet(),
	}, nil
}

// Instance returns the current (drifted) instance. Treat it as read-only;
// mutate through Apply.
func (s *Session) Instance() *Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inst
}

// Incumbent returns the current incumbent solution, nil before the first
// successful Resolve. The incumbent is expressed over the instance of the
// resolve that produced it — after Apply it may lag the current instance
// until the next Resolve.
func (s *Session) Incumbent() *Solution {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.incumbent
}

// Pending returns the number of delta ops applied since the last successful
// resolve.
func (s *Session) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// Adopt installs an externally computed solution as the session's incumbent
// — the warm anchor of every following Resolve. Typical uses: seeding the
// session with a one-off high-effort solve (a portfolio or QP run) before
// switching to cheap per-delta re-solves, or restoring a persisted layout
// after a restart. The solution must use the session's site count. It is
// carried onto the current instance, which may have grown since it was
// computed: by name when it carries its Model (every Solve result does), by
// index otherwise. It is then repaired and re-priced under the current
// model; drift bookkeeping resets, so the next Resolve treats the adopted
// layout as current. On error the session is unchanged.
func (s *Session) Adopt(sol *Solution) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sol == nil || sol.Partitioning == nil {
		return fmt.Errorf("vpart: session: cannot adopt a solution without a partitioning")
	}
	if sol.Partitioning.Sites != s.opts.Sites {
		return fmt.Errorf("vpart: session: adopted solution uses %d sites, session uses %d",
			sol.Partitioning.Sites, s.opts.Sites)
	}
	adapted, err := core.Carry(sol.Model, sol.Partitioning, s.model)
	if err != nil {
		return fmt.Errorf("vpart: session: %w", err)
	}
	// Judge the anchor as handed in, before the repair could silently
	// rewrite it into compliance: a constraint-violating anchor is rejected,
	// not fixed up. What the anchor does not place — dimensions grown since
	// it was computed — is skipped.
	if err := s.model.CheckConstraintsPartial(adapted); err != nil {
		return fmt.Errorf("vpart: session: cannot adopt a constraint-violating anchor: %w", err)
	}
	adapted.Repair(s.model)
	if err := adapted.Validate(s.model); err != nil {
		return fmt.Errorf("vpart: session: adopted anchor cannot be adapted to a feasible layout: %w", err)
	}
	cp := *sol
	cp.Model = s.model
	cp.Partitioning = adapted
	cp.Cost = s.model.Evaluate(adapted)
	s.incumbent = &cp
	s.dirty = NewDirtySet()
	s.pending = 0
	return nil
}

// Apply feeds workload drift into the session: the delta is validated and
// applied to the current instance in one pass that also accumulates the
// touched table/transaction names for the next resolve's shard reuse, and
// the drifted instance is compiled into the cost model the next Resolve
// solves over. The session's constraints are name-based and compile against
// the drifted instance too, unless the delta makes them contradictory (a
// query added to a pinned transaction reads an attribute forbidden on the
// pin's site): such a delta is rejected. On error the session is unchanged.
func (s *Session) Apply(delta WorkloadDelta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(delta.Ops) == 0 {
		// An ingestion epoch without churn: nothing to recompile.
		return nil
	}
	// Mark a scratch set so a failed delta marks nothing.
	dirty := s.dirty.Clone()
	inst, err := delta.Touch(s.inst, dirty)
	if err != nil {
		return fmt.Errorf("vpart: session: %w", err)
	}
	model, err := compileModel(inst, s.opts)
	if err != nil {
		return fmt.Errorf("vpart: session: %w", err)
	}
	s.inst, s.model, s.dirty = inst, model, dirty
	s.pending += len(delta.Ops)
	return nil
}

// UpdateConstraints replaces the session's placement-constraint set and
// recompiles the cost model against it — how a live session reacts to an
// operational event (a site loss forbidding placements there, a capacity
// shrink). The instance, incumbent and drift bookkeeping are untouched: if
// the incumbent violates the new set, the next Resolve's warm hint is
// rejected by the Solve facade and the resolve runs cold — Adopt a
// constraint-satisfying repaired layout first to keep it warm (Session.Adopt
// judges anchors against the new set). nil or an empty set removes all
// constraints. On error the session is unchanged.
func (s *Session) UpdateConstraints(cons *Constraints) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	opts := s.opts
	opts.Constraints = cons
	opts, err := opts.checkConstraints()
	if err != nil {
		return fmt.Errorf("vpart: session: %w", err)
	}
	model, err := compileModel(s.inst, opts)
	if err != nil {
		return fmt.Errorf("vpart: session: %w", err)
	}
	s.opts, s.model = opts, model
	return nil
}

// Resolve re-partitions the current instance and installs the result as the
// new incumbent. The first resolve runs cold; later resolves warm-start the
// configured solver from the incumbent and hand the decompose meta-solver
// the set of tables/transactions the deltas since the last resolve touched,
// so untouched components are reused instead of re-solved. The returned
// stats report what happened (warm-vs-cold winner, shards reused, the cost
// trajectory and the stale-incumbent baseline).
//
// Resolve holds the session lock for its duration: concurrent Apply calls
// block until the solve finishes. Cancelling ctx aborts the solve with an
// error and leaves the previous incumbent in place.
func (s *Session) Resolve(ctx context.Context) (*Solution, ResolveStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	stats := ResolveStats{
		Resolve:  s.resolves + 1,
		DeltaOps: s.pending,
	}
	opts := s.opts
	if s.incumbent != nil {
		layout, err := s.incumbentLayout()
		if err != nil {
			return nil, stats, fmt.Errorf("vpart: session: %w", err)
		}
		opts.Warm = &Solution{Partitioning: layout, WarmStart: s.incumbent.WarmStart}
		opts.WarmDirty = s.dirty.Clone()
		stats.Warm = true
		// The "do nothing" baseline: the previous layout re-priced under the
		// drifted workload.
		stats.StaleCost = s.model.Evaluate(layout)
	}

	var trajMu sync.Mutex
	user := opts.Progress
	opts.Progress = func(e Event) {
		if e.Kind == EventIncumbent {
			trajMu.Lock()
			stats.Trajectory = append(stats.Trajectory, TrajectoryPoint{
				Elapsed: e.Elapsed,
				Cost:    e.Cost,
				Solver:  e.Solver,
			})
			trajMu.Unlock()
		}
		if user != nil {
			user(e)
		}
	}

	sol, err := solve(ctx, s.inst, s.model, opts)
	if err != nil {
		return nil, stats, err
	}
	if sol.Partitioning == nil {
		// A time-out without any incumbent does not replace the session's.
		return sol, stats, fmt.Errorf("vpart: session: resolve %d found no feasible partitioning within its limits", stats.Resolve)
	}

	s.incumbent = sol
	s.dirty = NewDirtySet()
	s.pending = 0
	s.resolves++

	stats.WarmStart = sol.WarmStart
	stats.WarmRejected = sol.WarmRejected
	stats.Cost = sol.Cost
	stats.ShardsTotal = len(sol.Shards)
	stats.ShardsReused = sol.ShardsReused()
	stats.Solver = sol.Solver
	stats.Seed = sol.Seed
	stats.Runtime = sol.Runtime

	s.history = append(s.history, stats)
	if len(s.history) > historyCap {
		s.history = s.history[len(s.history)-historyCap:]
	}
	return sol, stats, nil
}

// History returns the stats of the session's most recent resolves in
// chronological order (capped at the 128 most recent so a long-lived session
// stays bounded). The returned slice is a copy.
func (s *Session) History() []ResolveStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ResolveStats(nil), s.history...)
}

// Staleness estimates how much worse the incumbent has become under the
// drift applied since it was computed: the incumbent re-priced under the
// cost model Apply compiled for the current instance, relative to its cost
// at resolve time, as a fraction (0.05 = 5 % costlier). Negative values mean
// drift made the layout cheaper. Zero without an incumbent or pending
// deltas; +Inf when the incumbent can no longer be adapted to the drifted
// instance. Trigger policies (the daemon's) compare this against a threshold
// to decide when a re-solve is worth its latency.
func (s *Session) Staleness() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.incumbent == nil || s.pending == 0 {
		return 0
	}
	base := s.incumbent.Cost.Balanced
	if base <= 0 {
		return 0
	}
	layout, err := s.incumbentLayout()
	if err != nil {
		return math.Inf(1)
	}
	return s.model.Evaluate(layout).Balanced/base - 1
}

// incumbentLayout carries the incumbent's layout by name from the model it
// was computed over onto the current one (core.Carry); transactions and
// attributes added since are placed by Repair. Callers hold s.mu and have
// checked that an incumbent exists.
func (s *Session) incumbentLayout() (*Partitioning, error) {
	p, err := core.Carry(s.incumbent.Model, s.incumbent.Partitioning, s.model)
	if err != nil {
		return nil, err
	}
	p.Repair(s.model)
	return p, nil
}
