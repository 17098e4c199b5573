// Package sapar implements parallel-tempering simulated annealing ("sa-par")
// for the vertical partitioning problem: K replicas of the sa package's
// annealing chain run concurrently at staggered temperatures, each on its own
// incremental core.Evaluator, and exchange states at synchronisation points
// under the standard replica-exchange Metropolis rule. Hot replicas cross
// cost barriers that would trap a single chain; cold replicas refine the best
// basins the hot ones discover, so wall-clock on a multi-core box buys
// search quality, not just repetition.
//
// # Determinism
//
// For a fixed (Seed, Replicas) the result is bit-identical regardless of
// GOMAXPROCS, the concurrency budget or goroutine scheduling:
//
//   - each replica k anneals with its own private RNG seeded
//     seeds.Replica(Seed, k), so no draw ever depends on another replica;
//   - replicas only run between WaitGroup barriers; all cross-replica
//     decisions — which pairs exchange, with what acceptance draw — happen on
//     the coordinating goroutine at the barrier, in replica-index order,
//     using the lower replica's RNG. Arrival order cannot influence them.
//
// The one unavoidable exception is shared with plain SA: under a TimeLimit
// the deadline binds at machine-speed-dependent iterations, so timed-out runs
// are only as reproducible as the clock.
package sapar

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"vpart/internal/conc"
	"vpart/internal/core"
	"vpart/internal/progress"
	"vpart/internal/sa"
	"vpart/internal/seeds"
)

// The parallel-tempering controls: the default ladder size, and the exchange
// cadence and temperature stagger every run uses.
const (
	// DefaultReplicas is the temperature-ladder size K. Four replicas keep a
	// useful hot tail without oversubscribing small machines; the portfolio
	// and CLI pass an explicit K when the user asks for one.
	DefaultReplicas = 4
	// DefaultExchangeEvery is E, the number of temperature levels each
	// replica anneals between exchange attempts.
	DefaultExchangeEvery = 2
	// DefaultStagger is the geometric spacing of the temperature ladder:
	// replica k starts at τ0·DefaultStagger^k.
	DefaultStagger = 1.5
)

// Options configures a parallel-tempering run.
type Options struct {
	// SA carries the shared chain parameters: model sites, the base Seed the
	// replica seeds derive from, level lengths, warm start, constraints
	// behaviour, TimeLimit and Progress. Every replica anneals under these
	// options, differing only in seed and initial temperature.
	SA sa.Options

	// Replicas is K, the number of concurrent chains (default
	// DefaultReplicas). K = 1 degenerates to plain sa.Solve. Replica k
	// starts at τ0·DefaultStagger^k, with τ0 taken from replica 0's Section
	// 5.1 rule, and replicas attempt state exchanges every
	// DefaultExchangeEvery temperature levels.
	Replicas int

	// Budget, when non-nil, bounds how many replicas anneal simultaneously:
	// each replica holds one slot per temperature level and releases it at
	// the barrier, so nested parallel solvers (portfolio children, decompose
	// shards) share the machine instead of oversubscribing it. Determinism
	// does not depend on the budget — only wall-clock does.
	Budget *conc.Budget
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Replicas == 0 {
		o.Replicas = DefaultReplicas
	}
	return o
}

// validate rejects nonsensical options.
func (o Options) validate() error {
	if o.Replicas < 1 {
		return fmt.Errorf("sapar: Replicas must be >= 1, got %d", o.Replicas)
	}
	return nil
}

// Solve runs parallel-tempering SA on the model and returns the best
// replica's polished result, with the search counters (iterations, accepted
// and improving moves, temperature levels) aggregated over all replicas.
// Cancelling the context aborts promptly with an error wrapping ctx.Err();
// SA.TimeLimit instead stops every replica gracefully and returns the best
// solution found so far.
func Solve(ctx context.Context, m *core.Model, opts Options) (*sa.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	// One replica is plain SA; one site has nothing to anneal. Both delegate
	// (Solve's own seed, not a replica seed, so K=1 matches sa.Solve exactly).
	if opts.Replicas == 1 || opts.SA.Sites == 1 {
		return sa.Solve(ctx, m, opts.SA)
	}
	start := time.Now()
	emit := opts.SA.Progress

	// Build the ladder: replica k gets its own chain, its own RNG seeded
	// seeds.Replica(base, k) — provably disjoint from portfolio-child and
	// decompose-shard seed blocks — and temperature τ0·DefaultStagger^k.
	chains := make([]*sa.Chain, opts.Replicas)
	for k := range chains {
		o := opts.SA
		o.Seed = seeds.Replica(opts.SA.Seed, k)
		// Replicas never emit progress themselves: concurrent emission would
		// interleave nondeterministically. The coordinator reports from the
		// barriers instead.
		o.Progress = nil
		c, err := sa.NewChain(m, o)
		if err != nil {
			return nil, err
		}
		chains[k] = c
	}
	tau0 := chains[0].Temperature()
	for k, c := range chains {
		c.SetTemperature(tau0 * math.Pow(DefaultStagger, float64(k)))
	}

	// Round loop: every live replica anneals one temperature level between
	// two barriers; exchanges happen on this goroutine at the barrier.
	errs := make([]error, len(chains))
	gBest := math.Inf(1)
	for round, live := 0, len(chains); live > 0; round++ {
		var wg sync.WaitGroup
		for k, c := range chains {
			if c.Stopped() {
				continue
			}
			wg.Add(1)
			go func(k int, c *sa.Chain) {
				defer wg.Done()
				// Leaf-compute slot: held only while annealing, released at
				// the barrier, so composite solvers waiting on this run never
				// hold a slot themselves (no acquisition cycle, no deadlock).
				if opts.Budget != nil {
					if err := opts.Budget.Acquire(ctx); err != nil {
						errs[k] = fmt.Errorf("sapar: replica %d: %w", k, err)
						return
					}
					defer opts.Budget.Release()
				}
				if _, err := c.RunLevel(ctx); err != nil {
					errs[k] = fmt.Errorf("sapar: replica %d: %w", k, err)
				}
			}(k, c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		live = 0
		for _, c := range chains {
			if !c.Stopped() {
				live++
			}
		}

		// Replica exchange between consecutive live rungs, in index order,
		// each decided by the colder (lower-index) replica's RNG.
		if (round+1)%DefaultExchangeEvery == 0 {
			prev := -1
			for k, c := range chains {
				if c.Stopped() {
					continue
				}
				if prev >= 0 {
					attemptSwap(chains[prev], c)
				}
				prev = k
			}
		}

		if emit != nil {
			best := math.Inf(1)
			for _, c := range chains {
				if bc := c.BestCost(); bc < best {
					best = bc
				}
			}
			if best < gBest-1e-12 {
				gBest = best
				emit.Emit(progress.Event{
					Kind:      progress.KindIncumbent,
					Cost:      gBest,
					Iteration: round + 1,
					Elapsed:   time.Since(start),
				})
			}
			emit.Emit(progress.Event{
				Kind:      progress.KindIteration,
				Cost:      gBest,
				Iteration: round + 1,
				Elapsed:   time.Since(start),
				Message:   fmt.Sprintf("round %d live %d/%d best=%.6g", round, live, len(chains), gBest),
			})
		}
	}

	// Winner: the replica with the best incumbent (ties to the lower index),
	// polished by its own Finish. The siblings' counters fold into the result
	// so Iterations etc. reflect the whole population's work.
	win := 0
	for k := 1; k < len(chains); k++ {
		if chains[k].BestCost() < chains[win].BestCost()-1e-12 {
			win = k
		}
	}
	res, err := chains[win].Finish()
	if err != nil {
		return nil, err
	}
	for k, c := range chains {
		if k == win {
			continue
		}
		st := c.Stats()
		res.Iterations += st.Iterations
		res.Accepted += st.Accepted
		res.Improved += st.Improved
		res.OuterLoops += st.OuterLoops
		if st.TimedOut {
			res.TimedOut = true
		}
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// attemptSwap applies the replica-exchange Metropolis rule to the adjacent
// pair (a colder than b): swap with probability min(1, exp((1/τa − 1/τb) ·
// (Ea − Eb))). A colder replica stuck above a hotter one's energy always
// swaps; the reverse swap happens occasionally, keeping detailed balance.
// Exactly one uniform draw is taken from a's RNG per attempt, accepted or
// not, so the stream of random numbers each replica consumes depends only on
// the round structure — never on scheduling.
func attemptSwap(a, b *sa.Chain) {
	p := math.Exp((1/a.Temperature() - 1/b.Temperature()) * (a.CurrentCost() - b.CurrentCost()))
	if a.Rand().Float64() < p {
		a.SwapState(b)
	}
}
