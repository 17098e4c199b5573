// Package service owns the vpartd daemon's named sessions. Each session
// wraps a vpart.Session behind a single-flight worker goroutine: HTTP
// handlers enqueue workload deltas and read a published state snapshot
// without ever touching the session directly, and the worker applies drift,
// decides when a background re-solve is worth its latency (trigger policy:
// debounce, pending-op count, cost-staleness estimate, max interval) and
// publishes the new incumbent when the solve lands. This is the documented
// concurrency pattern for putting a Session behind a server — reads never
// block on a running solve.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"regexp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vpart"
	"vpart/internal/daemon/metrics"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrNotFound reports an unknown session name.
	ErrNotFound = errors.New("session not found")
	// ErrExists reports a session-create collision.
	ErrExists = errors.New("session already exists")
	// ErrLimit reports the session limit being reached.
	ErrLimit = errors.New("session limit reached")
	// ErrBadRequest tags validation failures of caller input.
	ErrBadRequest = errors.New("bad request")
)

// Policy is the background re-solve trigger policy (see config.Trigger for
// the field semantics; zero thresholds disable the matching trigger).
type Policy struct {
	Debounce      time.Duration
	MaxPendingOps int
	MaxStaleness  float64
	MaxInterval   time.Duration
}

// Defaults fill session options the create request left empty.
type Defaults struct {
	Solver         string
	TimeLimit      time.Duration
	PortfolioSeeds int
}

// Config assembles a Service.
type Config struct {
	Logger      *slog.Logger
	Metrics     *metrics.Registry
	Policy      Policy
	Defaults    Defaults
	MaxSessions int
	// Ingest sizes the streaming ingestor a session lazily builds when its
	// first event batch arrives. The zero value selects
	// vpart.DefaultIngestConfig.
	Ingest vpart.IngestConfig
}

// SessionState is the JSON-serialisable view of one session that GET
// /v1/sessions/{name} serves. It is published by the session's worker after
// every change, so reading it never blocks on a running solve (the state can
// lag the inbox by the deltas still queued; PendingOps includes those).
type SessionState struct {
	Name      string      `json:"name"`
	CreatedAt time.Time   `json:"created_at"`
	Sites     int         `json:"sites"`
	Solver    string      `json:"solver"`
	Instance  vpart.Stats `json:"instance"`
	// PendingOps counts delta ops not yet reflected in the incumbent
	// (applied to the cost model or still queued).
	PendingOps int `json:"pending_ops"`
	// Staleness is the incumbent's cost drift estimate at the last publish
	// (see vpart.Session.Staleness).
	Staleness float64 `json:"staleness"`
	// Resolving reports whether a background solve is running right now.
	Resolving bool `json:"resolving"`
	// Resolves counts completed successful resolves.
	Resolves int `json:"resolves"`
	// Incumbent is the current incumbent layout (name-based); nil until the
	// first resolve lands.
	Incumbent *vpart.Assignment `json:"incumbent,omitempty"`
	// IncumbentCost is the incumbent's cost breakdown.
	IncumbentCost vpart.Cost `json:"incumbent_cost,omitzero"`
	// LastStats reports what the most recent successful resolve did.
	LastStats *vpart.ResolveStats `json:"last_stats,omitempty"`
	// Trajectory is the incumbent's balanced objective after every resolve,
	// oldest first — the daemon's cost trajectory for this session.
	Trajectory []float64 `json:"trajectory,omitempty"`
	// LastError is the most recent delta or resolve failure ("" when clean).
	LastError string `json:"last_error,omitempty"`
	// Ingest reports the session's streaming ingestor; nil until the first
	// event batch arrives.
	Ingest *IngestState `json:"ingest,omitempty"`
}

// IngestState is the JSON view of a session's streaming ingestor.
type IngestState struct {
	// Events counts stream events folded so far.
	Events uint64 `json:"events"`
	// PendingEvents counts events queued or folded into the current partial
	// epoch — observations not yet reflected in the session's workload.
	PendingEvents int `json:"pending_events"`
	// Epochs counts completed epoch compactions.
	Epochs int `json:"epochs"`
	// Tracked is the number of heavy-hitter shapes currently tracked.
	Tracked int `json:"tracked"`
	// SketchFill is the occupied fraction of the count-min counters.
	SketchFill float64 `json:"sketch_fill"`
	// StateBytes is the resident ingest state (sketches + top-k).
	StateBytes int `json:"state_bytes"`
	// Broken is set when an epoch delta failed to apply (events referencing
	// unknown tables); the stream can no longer be resumed on this session.
	Broken string `json:"broken,omitempty"`
}

// Service is the session registry. Create it with New, shut it down with
// Close.
type Service struct {
	logger *slog.Logger
	reg    *metrics.Registry
	policy atomic.Pointer[Policy]
	def    Defaults
	max    int
	ingCfg vpart.IngestConfig

	mu       sync.Mutex
	sessions map[string]*session
	closed   bool

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// New builds a Service. The logger and metrics registry must be non-nil.
func New(cfg Config) *Service {
	ctx, cancel := context.WithCancel(context.Background())
	ing := cfg.Ingest
	if ing == (vpart.IngestConfig{}) {
		ing = vpart.DefaultIngestConfig()
	}
	s := &Service{
		logger:   cfg.Logger,
		reg:      cfg.Metrics,
		def:      cfg.Defaults,
		max:      cfg.MaxSessions,
		ingCfg:   ing,
		sessions: map[string]*session{},
		baseCtx:  ctx,
		cancel:   cancel,
	}
	pol := cfg.Policy
	s.policy.Store(&pol)
	return s
}

// SetPolicy swaps the trigger policy at runtime (SIGHUP config reload).
// Running workers pick it up on their next trigger decision.
func (s *Service) SetPolicy(p Policy) {
	s.policy.Store(&p)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.sessions {
		m.poke()
	}
}

func (s *Service) policyNow() Policy { return *s.policy.Load() }

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// Create registers a session under name and starts its worker; the worker
// immediately runs the first (cold) solve in the background. Use AwaitSeq
// with seq 0 to block until that solve lands. The options take the vpart
// Solve semantics; empty Solver/TimeLimit/Portfolio fields are filled from
// the service defaults, and Progress must be unset (the worker owns the
// progress stream).
func (s *Service) Create(name string, inst *vpart.Instance, opts vpart.Options) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("service: invalid session name %q (want [A-Za-z0-9][A-Za-z0-9._-]{0,127}): %w", name, ErrBadRequest)
	}
	if opts.Progress != nil {
		return fmt.Errorf("service: Options.Progress is worker-managed; leave it unset: %w", ErrBadRequest)
	}
	if opts.Solver == "" {
		opts.Solver = s.def.Solver
	}
	if opts.TimeLimit == 0 {
		opts.TimeLimit = s.def.TimeLimit
	}
	if opts.Portfolio.SASeeds == 0 {
		opts.Portfolio.SASeeds = s.def.PortfolioSeeds
	}

	m := &session{
		svc:       s,
		name:      name,
		createdAt: time.Now(),
		wake:      make(chan struct{}, 1),
		finished:  make(chan struct{}),
		solvedSeq: -1,
		failedSeq: -1,
		applyErr:  map[int]error{},
	}
	m.broadcast = make(chan struct{})
	opts.Progress = m.onProgress
	sess, err := vpart.NewSession(inst, opts)
	if err != nil {
		return err
	}
	m.sess = sess
	m.solverName = opts.Solver
	m.sites = opts.Sites

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("service: shutting down")
	}
	if _, ok := s.sessions[name]; ok {
		s.mu.Unlock()
		return fmt.Errorf("service: session %q: %w", name, ErrExists)
	}
	if s.max > 0 && len(s.sessions) >= s.max {
		s.mu.Unlock()
		return fmt.Errorf("service: %w (%d)", ErrLimit, s.max)
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	m.stop = cancel
	s.sessions[name] = m
	s.wg.Add(1)
	count := len(s.sessions)
	s.mu.Unlock()

	s.reg.Gauge("vpartd_sessions", "live sessions", nil).Set(float64(count))
	s.logger.Info("session created", "session", name, "solver", opts.Solver,
		"sites", opts.Sites, "instance", inst.Name, "constraints", opts.Constraints.Len())
	m.commit(nil)
	go func() {
		defer s.wg.Done()
		m.run(ctx)
	}()
	return nil
}

func (s *Service) lookup(name string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.sessions[name]
	if !ok {
		return nil, fmt.Errorf("service: %w: %q", ErrNotFound, name)
	}
	return m, nil
}

// Delete cancels the session's worker (aborting a running solve), waits for
// it to drain and removes the session and its metrics series.
func (s *Service) Delete(name string) error {
	s.mu.Lock()
	m, ok := s.sessions[name]
	if ok {
		delete(s.sessions, name)
	}
	count := len(s.sessions)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("service: %w: %q", ErrNotFound, name)
	}
	m.stop()
	<-m.finished
	s.reg.DeleteLabeled("session", name)
	s.reg.Gauge("vpartd_sessions", "live sessions", nil).Set(float64(count))
	s.logger.Info("session deleted", "session", name)
	return nil
}

// List returns the state of every session, sorted by name.
func (s *Service) List() []SessionState {
	s.mu.Lock()
	ms := make([]*session, 0, len(s.sessions))
	for _, m := range s.sessions {
		ms = append(ms, m)
	}
	s.mu.Unlock()
	states := make([]SessionState, 0, len(ms))
	for _, m := range ms {
		states = append(states, m.currentState())
	}
	sort.Slice(states, func(i, j int) bool { return states[i].Name < states[j].Name })
	return states
}

// State returns the published state of one session. It never blocks on a
// running solve.
func (s *Service) State(name string) (SessionState, error) {
	m, err := s.lookup(name)
	if err != nil {
		return SessionState{}, err
	}
	return m.currentState(), nil
}

// Snapshot returns the full persistable snapshot of one session (instance,
// incumbent, constraints, history). Unlike State it reads the live session,
// so it blocks while a solve is running.
func (s *Service) Snapshot(name string) (*vpart.SessionSnapshot, error) {
	m, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return m.sess.Snapshot(), nil
}

// Enqueue queues a workload delta for the session's worker and returns a
// sequence number to AwaitSeq on. It never blocks on a running solve.
func (s *Service) Enqueue(name string, d vpart.WorkloadDelta) (int, error) {
	m, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	if len(d.Ops) == 0 {
		return 0, fmt.Errorf("service: empty delta: %w", ErrBadRequest)
	}
	m.mu.Lock()
	m.enqSeq++
	seq := m.enqSeq
	m.inbox = append(m.inbox, queued{seq: seq, delta: d})
	now := time.Now()
	if m.queuedOps == 0 && m.sessPending == 0 {
		m.firstPending = now
	}
	m.lastDelta = now
	m.queuedOps += len(d.Ops)
	m.mu.Unlock()
	m.poke()
	s.pendingGauge(name).Set(float64(m.pendingOps()))
	return seq, nil
}

// EnqueueEvents queues a batch of raw query events for the session's
// streaming ingestor and returns the number accepted. The worker folds them
// into bounded-memory sketches; completed epochs land on the session as
// coalesced workload deltas, and a resolve triggered while an epoch is
// partial force-flushes it first. Like Enqueue it never blocks on a running
// solve. Each event is validated up front; an invalid one rejects the whole
// batch. The batch is copied, so the caller may reuse its slice once this
// returns; the events' access lists are shared and must stay unmodified.
func (s *Service) EnqueueEvents(name string, events []vpart.QueryEvent) (int, error) {
	m, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	if len(events) == 0 {
		return 0, fmt.Errorf("service: empty event batch: %w", ErrBadRequest)
	}
	for i := range events {
		if err := events[i].Validate(); err != nil {
			return 0, fmt.Errorf("service: event %d: %w: %w", i, err, ErrBadRequest)
		}
	}
	batch := slices.Clone(events)
	m.mu.Lock()
	if m.ingBroken != nil {
		err := m.ingBroken
		m.mu.Unlock()
		return 0, fmt.Errorf("service: ingest stream broken: %w: %w", err, ErrBadRequest)
	}
	m.evInbox = append(m.evInbox, batch)
	m.evQueued += len(events)
	now := time.Now()
	if m.queuedOps == 0 && m.sessPending == 0 && m.evQueued == len(events) && m.evPartial == 0 {
		m.firstPending = now
	}
	m.lastDelta = now
	m.mu.Unlock()
	m.poke()
	return len(events), nil
}

// ForceResolve asks the worker to re-solve now, debounce or not, and returns
// the attempt number to AwaitAttempts on.
func (s *Service) ForceResolve(name string) (int, error) {
	m, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	m.force = true
	target := m.attempts + 1
	if m.resolving.Load() {
		// A solve is already running; the forced one is the next attempt.
		target = m.attempts + 2
	}
	m.mu.Unlock()
	m.poke()
	return target, nil
}

// AwaitSeq blocks until the delta with the given sequence number (0 = just
// the first solve) is reflected in the incumbent, its apply was rejected, or
// the resolve covering it failed; the two failure cases return the error.
func (s *Service) AwaitSeq(ctx context.Context, name string, seq int) error {
	m, err := s.lookup(name)
	if err != nil {
		return err
	}
	return m.await(ctx, func() (bool, error) {
		if err, ok := m.applyErr[seq]; ok {
			delete(m.applyErr, seq)
			return true, err
		}
		if m.resolves >= 1 && m.solvedSeq >= seq {
			return true, nil
		}
		if m.failedSeq >= seq && m.failErr != nil {
			return true, fmt.Errorf("service: resolve failed: %w", m.failErr)
		}
		return false, nil
	})
}

// AwaitAttempts blocks until the worker has finished at least n resolve
// attempts, returning the last attempt's error if it failed.
func (s *Service) AwaitAttempts(ctx context.Context, name string, n int) error {
	m, err := s.lookup(name)
	if err != nil {
		return err
	}
	return m.await(ctx, func() (bool, error) {
		if m.attempts >= n {
			return true, m.failErr
		}
		return false, nil
	})
}

// Close cancels every worker and waits for them to drain (bounded by ctx).
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: close: %w", ctx.Err())
	}
}

func (s *Service) pendingGauge(name string) metrics.Gauge {
	return s.reg.Gauge("vpartd_pending_delta_ops",
		"delta ops not yet reflected in the incumbent", metrics.Labels{"session": name})
}
