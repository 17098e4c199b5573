package vpart

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vpart/internal/core"
	"vpart/internal/progress"
	"vpart/internal/qp"
	"vpart/internal/sa"
)

// Progress-event types, re-exported from internal/progress. Solvers emit a
// typed event stream instead of pre-formatted log lines: incumbent-found,
// bound-improved and iteration events carrying the cost and the elapsed time.
type (
	// Event is a single progress notification from a running solver.
	Event = progress.Event
	// EventKind classifies progress events.
	EventKind = progress.Kind
	// ProgressFunc receives progress events. It is called synchronously from
	// the solver goroutine (the portfolio solver calls it from several), so it
	// must be fast and, for the portfolio, safe for concurrent use.
	ProgressFunc = progress.Func
)

// Progress event kinds.
const (
	// EventMessage is a free-form informational message.
	EventMessage = progress.KindMessage
	// EventIncumbent reports a new best feasible solution.
	EventIncumbent = progress.KindIncumbent
	// EventBound reports an improved proven lower bound.
	EventBound = progress.KindBound
	// EventIteration reports an iteration milestone.
	EventIteration = progress.KindIteration
)

// Options configure a Solve call. The zero value of every field except Sites
// selects a sensible default, so Options{Sites: 3} is a valid configuration.
type Options struct {
	// Sites is the number of sites |S| (≥ 1). Required.
	Sites int
	// Solver names the registered solver to run; empty selects "sa". See
	// Solvers() for the available names.
	Solver string
	// Model are the cost model parameters. The zero value selects the paper's
	// defaults (p = 8, λ = 0.1, "access all attributes").
	Model *ModelOptions
	// Disjoint forbids attribute replication.
	Disjoint bool
	// Constraints, when non-nil and non-empty, restricts the feasible
	// layouts: transaction and attribute pins, forbidden sites, colocation
	// and separation of attributes, replica caps and per-site byte
	// capacities (see the Constraints type). The set is name-based; the
	// Solve facade compiles it into every model of the solve (original,
	// grouped, per-shard), so all registered solvers — SA, QP, the portfolio
	// and the decompose meta-solver — honour it and the returned solution
	// satisfies Constraints.Check. Not supported together with Disjoint. An
	// empty set is identical to nil: the unconstrained fast path.
	Constraints *Constraints
	// DisableGrouping switches off the reasonable-cuts attribute grouping
	// preprocessing (Section 4). Grouping never changes the optimum; it only
	// shrinks the problem, so it is on by default.
	DisableGrouping bool
	// TimeLimit is a soft wall-clock budget (0 = none): when it expires the
	// solver stops gracefully and returns the best incumbent found so far,
	// marked TimedOut. For a hard stop — an error wrapping ctx.Err() and no
	// result — cancel the context instead.
	TimeLimit time.Duration
	// GapTol is the QP solver's relative MIP gap; zero selects the paper's
	// 0.1 %.
	GapTol float64
	// SeedWithSA runs the SA heuristic first and uses its solution as the QP
	// solver's initial incumbent. Ignored by the SA solver.
	SeedWithSA bool
	// Seed seeds the SA heuristic's random generator. Zero means "derive a
	// distinct seed": every Seed-0 solve in a process draws a fresh seed from
	// a package-level counter, so repeated calls (and the portfolio's
	// concurrent runs) explore different trajectories. Set a non-zero seed
	// for reproducible runs.
	Seed int64
	// Warm, when non-nil, is a warm-start hint: a previous Solution for the
	// same (or a delta-grown) instance and the same site count. The SA
	// solver seeds its move-based hot loop from the hint (with a cooler
	// initial temperature) instead of a random start, the QP solver takes it
	// as its initial incumbent, and the decompose meta-solver seeds every
	// shard with the hint's projection — reusing untouched shards outright
	// when WarmDirty is set. The portfolio's warm-seeded children (the first
	// SA run, the sa-par run and the QP run) start from the hint; while the
	// hint's WarmStart is false they race the cold restarts of
	// PortfolioOptions.SASeeds, and once it is true — the hint itself came
	// out of a warm start — they race alone. Hints with a different site
	// count, or that cannot be adapted to the instance, are silently ignored
	// (the solve falls back to cold).
	//
	// Callers pass the hint over the original instance; the Solve facade
	// matches it to the instance by name when the hint carries its Model (by
	// index otherwise), adapts it to grown dimensions and rewrites it into
	// the (grouped) solve space, so Solver implementations always receive
	// Warm.Partitioning expressed over their model. Partitioning and
	// WarmStart are the only fields of the hint that are forwarded.
	Warm *Solution
	// WarmDirty lists the table and transaction names the workload deltas
	// since Warm touched (see WorkloadDelta.Touch). The decompose meta-solver
	// re-solves only the components containing a dirty name and reuses the
	// warm solution for the rest; an empty (non-nil) set therefore reuses
	// everything. nil means unknown: every shard is re-solved, warm-seeded.
	// Ignored without Warm and by the non-decomposing solvers.
	WarmDirty *DirtySet
	// Preprocess selects the preprocessing pipeline applied before the
	// solver runs: PreprocessGroup (the default, reasonable-cuts grouping),
	// PreprocessNone (no preprocessing, same as DisableGrouping) or
	// PreprocessDecompose (grouping plus a split into independent components,
	// each solved concurrently with the selected Solver — or Decompose.Solver
	// when set — and merged exactly). Empty keeps the historical behaviour:
	// grouping unless DisableGrouping.
	Preprocess string
	// Parallel configures the "sa-par" parallel-tempering solver (its replica
	// count); other solvers ignore it.
	Parallel ParallelOptions
	// Portfolio configures the "portfolio" solver; other solvers ignore it.
	Portfolio PortfolioOptions
	// Decompose configures the "decompose" meta-solver; other solvers ignore
	// it.
	Decompose DecomposeOptions
	// Progress, when non-nil, receives typed progress events from the
	// running solver(s).
	Progress ProgressFunc
}

// Result is the outcome of a Solver run over a compiled (possibly grouped)
// cost model. The root Solve facade expands it back to the original
// attribute space and wraps it into a Solution.
type Result struct {
	// Partitioning is the best partitioning found over the model the solver
	// was given. Nil if the solver found none within its limits (the paper's
	// "t/o" entries).
	Partitioning *Partitioning
	// Cost is the cost breakdown of Partitioning under that model.
	Cost Cost
	// Solver is the name of the solver that produced the result (for the
	// portfolio, the name of the winning child, e.g. "portfolio/sa[2]").
	Solver string
	// Seed is the SA seed that produced the result (0 for the pure QP path).
	Seed int64
	// Optimal reports whether the solution was proven optimal within the MIP
	// gap (always false for the SA heuristic).
	Optimal bool
	// TimedOut reports whether a soft time limit stopped the search.
	TimedOut bool
	// Runtime is the solver's wall-clock time.
	Runtime time.Duration
	// Nodes, Gap and Bound are branch-and-bound statistics (QP); Iterations
	// counts SA inner iterations.
	Nodes      int
	Gap        float64
	Bound      float64
	Iterations int
	// WarmStart reports whether the result came out of the warm-start path:
	// an SA run seeded from Options.Warm, a portfolio whose winning child was
	// warm-seeded, or a decompose run that reused or warm-seeded its shards.
	WarmStart bool
	// Shards reports the per-component outcomes of the decompose meta-solver
	// (nil for every other solver).
	Shards []ShardInfo
}

// Solver is a partitioning algorithm. Implementations solve the compiled
// cost model m — already grouped by the reasonable-cuts preprocessing when
// the caller enabled it — and must honour ctx: a cancellation aborts the run
// promptly with an error wrapping ctx.Err().
//
// Register implementations with RegisterSolver to make them available to
// Solve under their Name.
type Solver interface {
	// Name is the registry key, e.g. "qp", "sa" or "portfolio".
	Name() string
	// Solve runs the algorithm on the model.
	Solve(ctx context.Context, m *Model, opts Options) (*Result, error)
}

// OptionsValidator is an optional interface a Solver may implement to reject
// unsupported configurations cheaply: the Solve facade consults it before
// compiling any cost model, so an invalid option errors immediately instead
// of after seconds of model building on a large instance.
type OptionsValidator interface {
	ValidateOptions(opts Options, model ModelOptions) error
}

// The package-level solver registry. The built-in solvers register
// themselves; external packages may add their own via RegisterSolver.
var solverRegistry = struct {
	sync.RWMutex
	byName map[string]Solver
}{byName: make(map[string]Solver)}

// RegisterSolver adds a solver to the registry under s.Name(). It panics on
// an empty name or a duplicate registration, mirroring database/sql.Register.
func RegisterSolver(s Solver) {
	if s == nil {
		panic("vpart: RegisterSolver called with nil solver")
	}
	name := s.Name()
	if name == "" {
		panic("vpart: RegisterSolver called with empty solver name")
	}
	solverRegistry.Lock()
	defer solverRegistry.Unlock()
	if _, dup := solverRegistry.byName[name]; dup {
		panic(fmt.Sprintf("vpart: RegisterSolver called twice for solver %q", name))
	}
	solverRegistry.byName[name] = s
}

// Solvers returns the sorted names of all registered solvers; at minimum
// "portfolio", "qp" and "sa".
func Solvers() []string {
	solverRegistry.RLock()
	defer solverRegistry.RUnlock()
	names := make([]string, 0, len(solverRegistry.byName))
	for name := range solverRegistry.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LookupSolver returns the registered solver with the given name.
func LookupSolver(name string) (Solver, bool) {
	solverRegistry.RLock()
	defer solverRegistry.RUnlock()
	s, ok := solverRegistry.byName[name]
	return s, ok
}

func init() {
	RegisterSolver(saSolver{})
	RegisterSolver(saparSolver{})
	RegisterSolver(qpSolver{})
	RegisterSolver(portfolioSolver{})
	RegisterSolver(decomposeSolver{})
}

// seedCounter backs the Seed-0 "derive a distinct seed" semantics.
var seedCounter atomic.Int64

// effectiveSeed returns seed unchanged when non-zero and the next derived
// seed otherwise. The derived sequence starts at 1, so the first Seed-0
// solve of a process matches the historical behaviour (which silently mapped
// 0 to 1).
func effectiveSeed(seed int64) int64 {
	if seed != 0 {
		return seed
	}
	return seedCounter.Add(1)
}

// Solve partitions the instance onto opts.Sites sites with the selected
// registered solver (opts.Solver, default "sa") and returns the best
// partitioning found together with its cost.
//
// Cancelling ctx aborts the solver promptly and returns an error wrapping
// ctx.Err(). The softer opts.TimeLimit instead returns the best incumbent
// found so far.
func Solve(ctx context.Context, inst *Instance, opts Options) (*Solution, error) {
	return solve(ctx, inst, nil, opts)
}

// solve is Solve over origModel, the model compileModel returns for inst and
// opts; a nil origModel is compiled here. Session.Resolve passes the model
// its Apply compiled, so each drift step compiles the instance once.
func solve(ctx context.Context, inst *Instance, origModel *Model, opts Options) (*Solution, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if inst == nil {
		return nil, fmt.Errorf("vpart: nil instance")
	}
	if opts.Sites < 1 {
		return nil, fmt.Errorf("vpart: invalid site count %d", opts.Sites)
	}
	// Fail fast before the O(instance) model compilation and grouping below.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("vpart: %w", err)
	}
	name := opts.Solver
	if name == "" {
		name = "sa"
	}
	// Resolve the preprocessing pipeline. PreprocessDecompose wraps the
	// selected solver in the decompose meta-solver, so any registered solver
	// gains grouping + component-split preprocessing without knowing about it.
	switch opts.Preprocess {
	case "":
		// Historical behaviour: grouping unless DisableGrouping.
	case PreprocessGroup:
		if opts.DisableGrouping {
			return nil, fmt.Errorf("vpart: Preprocess %q contradicts DisableGrouping", PreprocessGroup)
		}
	case PreprocessNone:
		opts.DisableGrouping = true
	case PreprocessDecompose:
		if name != "decompose" {
			// An explicitly configured shard solver wins; otherwise the
			// selected solver is the one being wrapped.
			if opts.Decompose.Solver == "" {
				opts.Decompose.Solver = name
			}
			name = "decompose"
		}
	default:
		return nil, fmt.Errorf("vpart: unknown preprocess pipeline %q (want %q, %q or %q)",
			opts.Preprocess, PreprocessGroup, PreprocessNone, PreprocessDecompose)
	}
	solver, ok := LookupSolver(name)
	if !ok {
		return nil, fmt.Errorf("vpart: unknown solver %q (registered: %v)", name, Solvers())
	}
	opts, err := opts.checkConstraints()
	if err != nil {
		return nil, fmt.Errorf("vpart: %w", err)
	}
	mo := opts.modelOptions()
	if v, ok := solver.(OptionsValidator); ok {
		if err := v.ValidateOptions(opts, mo); err != nil {
			return nil, err
		}
	}

	// Compile the original model (used for final evaluation and formatting),
	// with the constraint set resolved against it.
	if origModel == nil {
		origModel, err = compileModel(inst, opts)
		if err != nil {
			return nil, fmt.Errorf("vpart: %w", err)
		}
	}
	cons := opts.Constraints

	// Reasonable-cuts preprocessing. Under constraints the grouping is
	// profile-aware — attributes with differing constraints never merge — and
	// the set is rewritten onto the group representatives for the grouped
	// model. A grouping that merges nothing is dropped: the solve runs over
	// the original model, so the instance is compiled once.
	var grouping *Grouping
	if !opts.DisableGrouping {
		grouping, err = core.GroupAttributesConstrained(inst, cons)
		if err != nil {
			return nil, err
		}
		if grouping.Grouped == inst {
			grouping = nil
		}
	}
	solveModel := origModel
	if grouping != nil {
		groupedCons := cons
		if cons != nil {
			groupedCons, err = grouping.MapConstraints(cons)
			if err != nil {
				return nil, err
			}
		}
		solveModel, err = core.NewModelConstrained(grouping.Grouped, mo, groupedCons)
		if err != nil {
			return nil, err
		}
	}

	// Rewrite the warm hint into the solver's space: adapt it to dimensions
	// the workload deltas may have grown, reduce it under the grouping, and
	// repair it, so solvers receive a feasible partitioning over their model.
	warmRejected := ""
	if opts.Warm != nil {
		hint, reason := warmToSolveSpace(opts.Warm, origModel, solveModel, grouping, opts.Sites)
		if hint != nil {
			opts.Warm = &Solution{Partitioning: hint, WarmStart: opts.Warm.WarmStart}
		} else {
			opts.Warm, opts.WarmDirty = nil, nil
			warmRejected = reason
			opts.Progress.Emit(Event{
				Kind:    EventMessage,
				Solver:  "solve",
				Message: "warm start rejected, solving cold: " + reason,
			})
		}
	} else {
		opts.WarmDirty = nil
	}

	res, err := solver.Solve(ctx, solveModel, opts)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("vpart: solver %q returned no result", name)
	}

	sol := &Solution{
		Model:           origModel,
		Solver:          res.Solver,
		Seed:            res.Seed,
		AttributeGroups: solveModel.NumAttrs(),
		Optimal:         res.Optimal,
		TimedOut:        res.TimedOut,
		Nodes:           res.Nodes,
		Gap:             res.Gap,
		Bound:           res.Bound,
		Iterations:      res.Iterations,
		WarmStart:       res.WarmStart,
		WarmRejected:    warmRejected,
		Shards:          res.Shards,
	}
	if sol.Solver == "" {
		sol.Solver = name
	}
	if res.Partitioning == nil {
		// Time-out without any integer solution (the paper's "t/o").
		sol.Runtime = time.Since(start)
		return sol, nil
	}

	// Expand the grouped solution back to the original attribute space.
	final := res.Partitioning
	if grouping != nil {
		final, err = grouping.Expand(solveModel, origModel, res.Partitioning)
		if err != nil {
			return nil, err
		}
	}
	if err := final.Validate(origModel); err != nil {
		return nil, fmt.Errorf("vpart: solver returned an infeasible partitioning: %w", err)
	}
	sol.Partitioning = final
	sol.Cost = origModel.Evaluate(final)
	sol.Runtime = time.Since(start)
	return sol, nil
}

// modelOptions returns the cost-model parameters, the paper's defaults when
// Model is unset.
func (o Options) modelOptions() ModelOptions {
	if o.Model != nil {
		return *o.Model
	}
	return DefaultModelOptions()
}

// checkConstraints returns the options with their constraint set checked,
// for Solve, NewSession and Session.UpdateConstraints alike. An empty set is
// the unconstrained fast path and becomes nil; a non-empty one is rejected
// together with Disjoint, validated and cloned — the compiled model retains
// it, so a caller mutating their value later must not change, or race, what
// is enforced. Errors are unprefixed; callers wrap them.
func (o Options) checkConstraints() (Options, error) {
	if o.Constraints.Empty() {
		o.Constraints = nil
		return o, nil
	}
	if o.Disjoint {
		return o, errors.New("placement constraints are not supported together with Disjoint")
	}
	if err := o.Constraints.Validate(); err != nil {
		return o, err
	}
	o.Constraints = o.Constraints.Clone()
	return o, nil
}

// compileModel compiles the cost model of inst against the checked
// constraint set of opts (see checkConstraints) and checks that the set fits
// opts.Sites. Errors are unprefixed; callers wrap them.
func compileModel(inst *Instance, opts Options) (*Model, error) {
	m, err := core.NewModelConstrained(inst, opts.modelOptions(), opts.Constraints)
	if err != nil {
		return nil, err
	}
	if err := m.ValidateConstraintSites(opts.Sites); err != nil {
		return nil, err
	}
	return m, nil
}

// warmToSolveSpace maps a caller-supplied warm hint (expressed over the
// original instance) into the space the solver works in: carried onto the
// original model's — possibly delta-grown — dimensions by core.Carry (by
// name when the hint carries its Model, by index otherwise), reduced under
// the grouping when one is active, and repaired to feasibility. A hint that
// does not fit (wrong site count, unknown names, shrunken dimensions, a
// constraint violation the repair cannot fix) yields a nil partitioning plus
// the reason, which makes the solve fall back to a cold start and report why
// it went cold (Solution.WarmRejected).
func warmToSolveSpace(warm *Solution, origModel, solveModel *Model, grouping *Grouping, sites int) (*Partitioning, string) {
	if warm.Partitioning == nil {
		return nil, "hint carries no partitioning"
	}
	if warm.Partitioning.Sites != sites {
		return nil, fmt.Sprintf("hint uses %d site(s), solve uses %d", warm.Partitioning.Sites, sites)
	}
	adapted, err := core.Carry(warm.Model, warm.Partitioning, origModel)
	if err != nil {
		return nil, fmt.Sprintf("hint does not fit the model: %v", err)
	}
	adapted.Repair(origModel)
	var hint *Partitioning
	if grouping == nil {
		hint = adapted
	} else {
		reduced, err := grouping.Reduce(origModel, solveModel, adapted)
		if err != nil {
			return nil, fmt.Sprintf("hint cannot be reduced under the grouping: %v", err)
		}
		reduced.Repair(solveModel)
		hint = reduced
	}
	if solveModel.Constraints() != nil {
		if err := hint.Validate(solveModel); err != nil {
			return nil, fmt.Sprintf("hint violates the solve constraints: %v", err)
		}
	}
	return hint, ""
}

// warmHint extracts the solver-space warm partitioning from the options, nil
// when the solve is cold.
func warmHint(opts Options) *core.Partitioning {
	if opts.Warm == nil {
		return nil
	}
	return opts.Warm.Partitioning
}

// saSolver adapts internal/sa to the Solver interface.
type saSolver struct{}

func (saSolver) Name() string { return "sa" }

func (saSolver) Solve(ctx context.Context, m *Model, opts Options) (*Result, error) {
	// A whole SA run is one leaf computation: it holds one slot of the shared
	// budget, so portfolio children and decompose shards queue instead of
	// oversubscribing the machine.
	if err := solverBudget.Acquire(ctx); err != nil {
		return nil, fmt.Errorf("vpart: %w", err)
	}
	defer solverBudget.Release()
	so := saOptions(opts, effectiveSeed(opts.Seed))
	so.Progress = opts.Progress.Named("sa")
	res, err := sa.Solve(ctx, m, so)
	if err != nil {
		return nil, err
	}
	return &Result{
		Partitioning: res.Partitioning,
		Cost:         res.Cost,
		Solver:       "sa",
		Seed:         so.Seed,
		TimedOut:     res.TimedOut,
		Runtime:      res.Runtime,
		Iterations:   res.Iterations,
		WarmStart:    res.WarmStart,
	}, nil
}

// saOptions derives the internal SA options from the facade options and a
// concrete (already derived) seed.
func saOptions(opts Options, seed int64) sa.Options {
	so := sa.DefaultOptions(opts.Sites)
	so.Seed = seed
	so.TimeLimit = opts.TimeLimit
	so.Disjoint = opts.Disjoint
	so.Initial = warmHint(opts)
	return so
}

// errQPWriteRelevant is the shared rejection for the one write-accounting
// mode the QP linearisation cannot express.
func errQPWriteRelevant() error {
	return fmt.Errorf("vpart: the QP solver does not support the %q write accounting (use the SA solver or WriteAll/WriteNone)", WriteRelevant)
}

// qpSolver adapts internal/qp to the Solver interface.
type qpSolver struct{}

func (qpSolver) Name() string { return "qp" }

func (qpSolver) ValidateOptions(_ Options, mo ModelOptions) error {
	if mo.WriteAccounting == WriteRelevant {
		return errQPWriteRelevant()
	}
	return nil
}

func (qpSolver) Solve(ctx context.Context, m *Model, opts Options) (*Result, error) {
	if m.Options().WriteAccounting == WriteRelevant {
		return nil, errQPWriteRelevant()
	}
	// Like saSolver: a QP run (including its optional SA seeding run) is one
	// leaf computation holding one slot of the shared budget.
	if err := solverBudget.Acquire(ctx); err != nil {
		return nil, fmt.Errorf("vpart: %w", err)
	}
	defer solverBudget.Release()
	qo := qp.DefaultOptions(opts.Sites)
	qo.TimeLimit = opts.TimeLimit
	qo.Disjoint = opts.Disjoint
	qo.Progress = opts.Progress.Named("qp")
	if opts.GapTol != 0 {
		qo.GapTol = opts.GapTol
	}
	seed := int64(0)
	warm := false
	switch {
	case opts.SeedWithSA:
		seed = effectiveSeed(opts.Seed)
		so := saOptions(opts, seed)
		so.Progress = opts.Progress.Named("qp/sa-seed")
		seedRes, err := sa.Solve(ctx, m, so)
		if err != nil {
			return nil, err
		}
		qo.InitialPartitioning = seedRes.Partitioning
		warm = seedRes.WarmStart
	case warmHint(opts) != nil:
		// A warm hint is a ready-made initial incumbent: branch-and-bound
		// starts pruning against its cost immediately.
		qo.InitialPartitioning = warmHint(opts)
		warm = true
	}
	res, err := qp.Solve(ctx, m, qo)
	if err != nil {
		return nil, err
	}
	return &Result{
		Partitioning: res.Partitioning,
		Cost:         res.Cost,
		Solver:       "qp",
		Seed:         seed,
		Optimal:      res.Optimal(),
		TimedOut:     res.TimedOut,
		Runtime:      res.Runtime,
		Nodes:        res.Nodes,
		Gap:          res.Gap,
		Bound:        res.Bound,
		WarmStart:    warm,
	}, nil
}
