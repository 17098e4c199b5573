package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vpart"
	"vpart/internal/daemon/metrics"
)

// queued is one delta waiting in a session's inbox.
type queued struct {
	seq   int
	delta vpart.WorkloadDelta
}

// session pairs a vpart.Session with its single-flight worker. All session
// access goes through the worker goroutine (run); handlers only touch the
// inbox, the published state and the bookkeeping counters under mu.
type session struct {
	svc        *Service
	name       string
	solverName string
	sites      int
	createdAt  time.Time
	sess       *vpart.Session
	ing        *vpart.Ingestor // lazily built by the worker on the first event batch

	wake     chan struct{} // buffered(1): poke the worker
	stop     context.CancelFunc
	finished chan struct{} // closed when the worker has exited

	resolving atomic.Bool
	curCtx    atomic.Pointer[context.Context] // the running resolve's context
	state     atomic.Pointer[SessionState]    // published view, never blocks readers

	mu           sync.Mutex
	inbox        []queued
	enqSeq       int           // last sequence number handed out
	drainedSeq   int           // deltas applied (or rejected) so far
	queuedOps    int           // ops sitting in the inbox
	sessPending  int           // ops applied to the session but not yet resolved
	force        bool          // a forced resolve is requested
	firstPending time.Time     // when the oldest unresolved drift arrived
	lastDelta    time.Time     // when the newest delta arrived
	attempts     int           // resolve attempts (successful or not)
	resolves     int           // successful resolves
	solvedSeq    int           // deltas reflected in the incumbent (-1 before the first solve)
	failedSeq    int           // deltas covered by the last failed attempt
	failErr      error         // last attempt's error, nil after a success
	applyErr     map[int]error // rejected deltas by sequence number
	lastErrStr   string
	evInbox      [][]vpart.QueryEvent // queued event batches, oldest first
	evQueued     int                  // events sitting in evInbox
	evPartial    int                  // events folded into the current partial epoch
	ingBroken    error                // permanent ingest failure (epoch delta rejected)
	ingStats     *vpart.IngestStats   // snapshot after the last fold, nil before the first
	lastStats    *vpart.ResolveStats
	lastAsg      *vpart.Assignment
	lastCost     vpart.Cost
	trajectory   []float64
	broadcast    chan struct{} // closed+replaced on every state change Await cares about
}

func (m *session) poke() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

func (m *session) broadcastLocked() {
	close(m.broadcast)
	m.broadcast = make(chan struct{})
}

// pendingOps counts delta ops not yet reflected in the incumbent.
func (m *session) pendingOps() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queuedOps + m.sessPending
}

// await blocks until cond (evaluated under mu) reports done, the context is
// cancelled, or the worker exits.
func (m *session) await(ctx context.Context, cond func() (bool, error)) error {
	for {
		m.mu.Lock()
		done, err := cond()
		ch := m.broadcast
		m.mu.Unlock()
		if done {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-m.finished:
			m.mu.Lock()
			done, err = cond()
			m.mu.Unlock()
			if done {
				return err
			}
			return fmt.Errorf("service: session %q closed", m.name)
		case <-ch:
		}
	}
}

// run is the single-flight worker: it owns every call into the wrapped
// vpart.Session. The first solve runs cold immediately; afterwards the loop
// drains queued deltas into the session (one Apply, and so one model
// compile, per delta), decides via the trigger policy when the accumulated
// drift is worth a re-solve, and publishes a fresh state snapshot after
// every step.
func (m *session) run(ctx context.Context) {
	defer func() {
		m.mu.Lock()
		left := m.queuedOps
		m.broadcastLocked()
		m.mu.Unlock()
		if left > 0 {
			m.svc.logger.Info("worker stopped with deltas pending",
				"session", m.name, "queued_ops", left)
		}
		if m.ing != nil {
			m.ing.Close()
		}
		close(m.finished)
	}()

	m.solve(ctx) // initial cold solve
	for {
		if ctx.Err() != nil {
			return
		}
		m.drain()
		m.drainEvents()

		m.mu.Lock()
		pending := m.queuedOps + m.sessPending
		evPending := m.evQueued + m.evPartial
		force := m.force
		lastDelta, firstPending := m.lastDelta, m.firstPending
		m.mu.Unlock()

		if pending == 0 && evPending == 0 && !force {
			select {
			case <-ctx.Done():
				return
			case <-m.wake:
			}
			continue
		}

		pol := m.svc.policyNow()
		staleness := m.sess.Staleness()
		now := time.Now()
		trigger := force ||
			now.Sub(lastDelta) >= pol.Debounce ||
			(pol.MaxPendingOps > 0 && pending >= pol.MaxPendingOps) ||
			(pol.MaxStaleness > 0 && staleness >= pol.MaxStaleness) ||
			(pol.MaxInterval > 0 && now.Sub(firstPending) >= pol.MaxInterval)
		if !trigger {
			wait := pol.Debounce - now.Sub(lastDelta)
			if pol.MaxInterval > 0 {
				if iv := pol.MaxInterval - now.Sub(firstPending); iv < wait {
					wait = iv
				}
			}
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-m.wake:
				t.Stop()
			case <-t.C:
			}
			continue
		}

		m.solve(ctx)
	}
}

// drain applies every queued delta to the session. A rejected delta is
// recorded under its sequence number (AwaitSeq surfaces it) and does not
// stop the rest of the queue.
func (m *session) drain() {
	m.mu.Lock()
	batch := m.inbox
	m.inbox = nil
	m.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	errs := make([]error, len(batch))
	for i, q := range batch {
		errs[i] = m.sess.Apply(q.delta)
		if errs[i] != nil {
			m.svc.logger.Warn("delta rejected", "session", m.name, "seq", q.seq, "error", errs[i])
			m.svc.reg.Counter("vpartd_delta_errors_total",
				"rejected workload deltas", metrics.Labels{"session": m.name}).Inc()
		} else {
			m.svc.logger.Debug("delta applied", "session", m.name, "seq", q.seq, "ops", len(q.delta.Ops))
		}
	}
	pending := m.sess.Pending()
	m.commit(func() {
		for i, q := range batch {
			m.drainedSeq = q.seq
			m.queuedOps -= len(q.delta.Ops)
			if errs[i] != nil {
				m.applyErr[q.seq] = errs[i]
				m.lastErrStr = errs[i].Error()
			}
		}
		// Bound the map: an unread rejection older than the window is
		// dropped (its AwaitSeq caller, if any, is long gone).
		for seq := range m.applyErr {
			if seq < m.drainedSeq-1024 {
				delete(m.applyErr, seq)
			}
		}
		m.sessPending = pending
	})
	m.svc.pendingGauge(m.name).Set(float64(m.pendingOps()))
}

// drainEvents folds every queued event batch into the session's ingestor,
// building it on first use. Completed epochs apply their deltas to the
// session inside Ingestor.Ingest; an apply failure (events referencing
// schema the session lacks) permanently breaks the stream — further event
// batches are rejected at the door, while deltas and resolves keep working.
func (m *session) drainEvents() {
	m.mu.Lock()
	batches := m.evInbox
	m.evInbox = nil
	m.mu.Unlock()
	if len(batches) == 0 {
		return
	}
	if m.ing == nil {
		ing, err := m.sess.NewIngestor(m.svc.ingCfg)
		if err != nil {
			m.failEvents(batches, fmt.Errorf("build ingestor: %w", err))
			return
		}
		m.ing = ing
		m.svc.logger.Info("ingestor started", "session", m.name,
			"epoch_events", m.svc.ingCfg.EpochEvents, "top_k", m.svc.ingCfg.TopK,
			"shards", m.svc.ingCfg.Shards)
	}
	labels := metrics.Labels{"session": m.name}
	for bi, batch := range batches {
		start := time.Now()
		epochs, err := m.ing.Ingest(batch)
		elapsed := time.Since(start)
		if err != nil {
			m.recordEpochs(epochs)
			m.failEvents(batches[bi:], err)
			return
		}
		stats := m.ing.Stats()
		m.mu.Lock()
		m.evQueued -= len(batch)
		m.evPartial += len(batch)
		if n := len(epochs); n > 0 {
			// Epoch.Events is the cumulative count at the boundary: whatever
			// the total has moved past the last boundary is the new partial.
			m.evPartial = int(stats.Events - epochs[n-1].Events)
		}
		m.ingStats = &stats
		m.mu.Unlock()
		m.recordEpochs(epochs)
		m.svc.reg.Counter("vpartd_ingest_events_total",
			"stream events folded into sessions", labels).Add(float64(len(batch)))
		if secs := elapsed.Seconds(); secs > 0 {
			m.svc.reg.Gauge("vpartd_ingest_events_per_second",
				"fold throughput of the last ingested batch", labels).
				Set(float64(len(batch)) / secs)
		}
		m.svc.reg.Gauge("vpartd_ingest_sketch_fill",
			"occupied fraction of the count-min counters", labels).Set(stats.SketchFill)
		m.svc.reg.Gauge("vpartd_ingest_epochs",
			"completed epoch compactions", labels).Set(float64(stats.Epochs))
		m.svc.reg.Gauge("vpartd_ingest_tracked_shapes",
			"heavy-hitter query shapes currently tracked", labels).Set(float64(stats.Tracked))
		m.svc.reg.Gauge("vpartd_ingest_state_bytes",
			"resident ingest state (sketches + top-k)", labels).Set(float64(stats.StateBytes))
	}
	pending := m.sess.Pending()
	m.commit(func() { m.sessPending = pending })
	m.svc.pendingGauge(m.name).Set(float64(m.pendingOps()))
}

// recordEpochs logs applied epoch compactions and feeds the heavy-hitter
// churn counters.
func (m *session) recordEpochs(epochs []vpart.IngestEpoch) {
	for _, ep := range epochs {
		m.svc.logger.Info("ingest epoch applied", "session", m.name,
			"epoch", ep.Seq, "events", ep.Events,
			"adds", ep.Adds, "removes", ep.Removes, "scales", ep.Scales)
		churn := func(op string) metrics.Counter {
			return m.svc.reg.Counter("vpartd_ingest_churn_total",
				"heavy-hitter set churn, by delta op kind",
				metrics.Labels{"session": m.name, "op": op})
		}
		churn("add").Add(float64(ep.Adds))
		churn("remove").Add(float64(ep.Removes))
		churn("scale").Add(float64(ep.Scales))
	}
}

// failEvents marks the ingest stream permanently broken and drops the
// not-yet-folded batches.
func (m *session) failEvents(dropped [][]vpart.QueryEvent, err error) {
	lost := 0
	for _, b := range dropped {
		lost += len(b)
	}
	pending := m.sess.Pending()
	m.commit(func() {
		m.ingBroken = err
		m.evQueued -= lost
		m.evPartial = 0
		m.sessPending = pending
		m.lastErrStr = err.Error()
		if m.ingStats != nil {
			cp := *m.ingStats
			m.ingStats = &cp
		}
	})
	m.svc.logger.Warn("ingest stream broken", "session", m.name,
		"dropped_events", lost, "error", err)
	m.svc.reg.Counter("vpartd_ingest_errors_total",
		"permanently failed ingest streams", metrics.Labels{"session": m.name}).Inc()
}

// flushPartialEpoch folds the current partial epoch into the session so an
// imminent resolve sees the freshest workload. Worker-only, like every other
// session access.
func (m *session) flushPartialEpoch() {
	m.mu.Lock()
	partial := m.evPartial
	m.mu.Unlock()
	if m.ing == nil || partial == 0 {
		return
	}
	ep, err := m.ing.FlushEpoch()
	if err != nil {
		m.failEvents(nil, err)
		return
	}
	stats := m.ing.Stats()
	pending := m.sess.Pending()
	m.commit(func() {
		m.evPartial = 0
		m.sessPending = pending
		m.ingStats = &stats
	})
	if ep != nil {
		m.recordEpochs([]vpart.IngestEpoch{*ep})
	}
}

// solve runs one resolve attempt under a cancellable per-resolve context and
// records the outcome (stats, metrics, trajectory, Await bookkeeping).
func (m *session) solve(ctx context.Context) {
	if ctx.Err() != nil {
		return
	}
	// Claim the attempt before folding the inboxes in: a ForceResolve that
	// still finds the force flag set is served by this attempt, so whatever
	// its caller queued before is drained below; a later one sees resolving
	// and targets the next attempt.
	m.mu.Lock()
	m.force = false
	m.resolving.Store(true)
	m.mu.Unlock()
	m.drain()
	m.drainEvents()
	// Fold the partial epoch too: the solve should price the freshest
	// workload the stream has delivered.
	m.flushPartialEpoch()
	m.mu.Lock()
	covered := m.drainedSeq
	pending := m.sessPending
	m.mu.Unlock()

	rctx, cancel := context.WithCancel(ctx)
	m.curCtx.Store(&rctx)
	m.svc.logger.Info("resolve started", "session", m.name, "pending_ops", pending)
	sol, stats, err := m.sess.Resolve(rctx)
	cancel()

	if err != nil {
		m.svc.reg.Counter("vpartd_resolves_total", "resolve attempts",
			metrics.Labels{"session": m.name, "outcome": "error"}).Inc()
		m.commit(func() {
			m.resolving.Store(false)
			m.attempts++
			m.failedSeq = covered
			m.failErr = err
			m.lastErrStr = err.Error()
		})
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			m.svc.logger.Info("resolve cancelled", "session", m.name, "error", err)
			return
		}
		m.svc.logger.Warn("resolve failed", "session", m.name, "error", err)
		// Back off before the loop re-triggers, so a persistently failing
		// session does not spin.
		select {
		case <-ctx.Done():
		case <-time.After(time.Second):
		}
		return
	}

	labels := metrics.Labels{"session": m.name}
	m.svc.reg.Counter("vpartd_resolves_total", "resolve attempts",
		metrics.Labels{"session": m.name, "outcome": "ok"}).Inc()
	m.svc.reg.Histogram("vpartd_solve_duration_seconds",
		"wall-clock resolve latency", nil, labels).Observe(stats.Runtime.Seconds())
	start := "cold"
	if stats.WarmStart {
		start = "warm"
	}
	m.svc.reg.Counter("vpartd_resolve_wins_total",
		"resolves by winning start kind", metrics.Labels{"session": m.name, "start": start}).Inc()
	if stats.ShardsReused > 0 {
		m.svc.reg.Counter("vpartd_shards_reused_total",
			"decompose shards reused verbatim", labels).Add(float64(stats.ShardsReused))
	}
	m.svc.reg.Gauge("vpartd_incumbent_cost",
		"balanced objective of the served incumbent", labels).Set(stats.Cost.Balanced)
	asg := sol.Partitioning.ToAssignment(sol.Model)
	m.commit(func() {
		m.resolving.Store(false)
		m.attempts++
		m.resolves++
		m.solvedSeq = covered
		m.failErr = nil
		m.lastErrStr = ""
		m.lastStats = &stats
		m.lastAsg = asg
		m.lastCost = stats.Cost
		m.sessPending = 0
		m.trajectory = append(m.trajectory, stats.Cost.Balanced)
	})
	m.svc.pendingGauge(m.name).Set(float64(m.pendingOps()))
	m.svc.logger.Info("resolve finished",
		"session", m.name,
		"resolve", stats.Resolve,
		"cost", stats.Cost.Balanced,
		"warm", stats.Warm,
		"warm_start", stats.WarmStart,
		"solver", stats.Solver,
		"shards_reused", stats.ShardsReused,
		"runtime", stats.Runtime.Round(time.Millisecond).String(),
	)
}

// onProgress receives every solver progress event of the session's resolves.
// Events arriving after the resolve's context was cancelled would otherwise
// vanish with the aborted solve; they are surfaced as structured log lines
// so an operator can see what the killed solver was still doing.
func (m *session) onProgress(e vpart.Event) {
	if p := m.curCtx.Load(); p != nil && (*p).Err() != nil {
		m.svc.logger.Warn("progress event after cancellation",
			"session", m.name,
			"solver", e.Solver,
			"kind", e.Kind.String(),
			"cost", e.Cost,
			"elapsed", e.Elapsed.String(),
			"message", e.Message,
		)
		m.svc.reg.Counter("vpartd_progress_after_cancel_total",
			"progress events observed after resolve cancellation",
			metrics.Labels{"session": m.name}).Inc()
		return
	}
	if e.Kind == vpart.EventIncumbent {
		m.svc.logger.Debug("incumbent improved",
			"session", m.name, "solver", e.Solver, "cost", e.Cost, "elapsed", e.Elapsed.String())
	}
}

// commit runs update on the bookkeeping, then refreshes the lock-free state
// snapshot handlers serve and wakes Await callers, all in one critical
// section: a caller whose Await condition holds reads a State that already
// reflects it. Only the worker (and Create, before the worker starts) calls
// it, so reading the wrapped session here cannot block on a running solve.
func (m *session) commit(update func()) {
	st := &SessionState{
		Name:      m.name,
		CreatedAt: m.createdAt,
		Sites:     m.sites,
		Solver:    m.solverName,
		Instance:  m.sess.Instance().Stats(),
		Staleness: m.sess.Staleness(),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if update != nil {
		update()
	}
	st.PendingOps = m.queuedOps + m.sessPending
	st.Resolves = m.resolves
	st.Incumbent = m.lastAsg
	st.IncumbentCost = m.lastCost
	if m.lastStats != nil {
		cp := *m.lastStats
		st.LastStats = &cp
	}
	st.Trajectory = append([]float64(nil), m.trajectory...)
	st.LastError = m.lastErrStr
	if m.ingStats != nil {
		st.Ingest = &IngestState{
			Events:        m.ingStats.Events,
			PendingEvents: m.evQueued + m.evPartial,
			Epochs:        m.ingStats.Epochs,
			Tracked:       m.ingStats.Tracked,
			SketchFill:    m.ingStats.SketchFill,
			StateBytes:    m.ingStats.StateBytes,
		}
		if m.ingBroken != nil {
			st.Ingest.Broken = m.ingBroken.Error()
		}
	}
	m.state.Store(st)
	m.broadcastLocked()
}

// currentState returns the published state plus the live pending-op count
// and resolving flag. Never blocks on a running solve.
func (m *session) currentState() SessionState {
	st := *m.state.Load()
	st.PendingOps = m.pendingOps()
	st.Resolving = m.resolving.Load()
	return st
}
