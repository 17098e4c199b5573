package vpart

import (
	"encoding/json"
	"fmt"
	"io"

	"vpart/internal/core"
	"vpart/internal/jsonscan"
)

// SessionSnapshot is a JSON-serialisable copy of a session's full state: the
// current (drifted) instance, the incumbent layout in its name-based form,
// the placement constraints and the recent resolve history. The vpartd
// daemon serves snapshots over HTTP and persists them across restarts;
// NewSessionFromSnapshot turns one back into a live session.
type SessionSnapshot struct {
	// Instance is the current (drifted) instance.
	Instance *Instance `json:"instance"`
	// Sites is the session's site count.
	Sites int `json:"sites"`
	// Solver is the session's configured solver name ("" = the default).
	Solver string `json:"solver,omitempty"`
	// Constraints is the session's placement-constraint set (nil when
	// unconstrained).
	Constraints *Constraints `json:"constraints,omitempty"`
	// Incumbent is the current incumbent layout in its name-based form, over
	// the snapshot's instance (attributes added since the resolve are placed
	// as the next warm resolve would place them); nil before the first
	// successful resolve.
	Incumbent *Assignment `json:"incumbent,omitempty"`
	// IncumbentCost is the incumbent's cost breakdown at resolve (or adopt)
	// time. Meaningful only when Incumbent is set.
	IncumbentCost Cost `json:"incumbent_cost,omitzero"`
	// PendingOps is the number of delta ops applied since the last resolve —
	// drift the incumbent does not reflect yet.
	PendingOps int `json:"pending_ops,omitempty"`
	// Resolves is the session's resolve counter.
	Resolves int `json:"resolves,omitempty"`
	// History lists the stats of the most recent resolves (see
	// Session.History).
	History []ResolveStats `json:"history,omitempty"`
}

// Snapshot returns a JSON-serialisable copy of the session's state: instance,
// incumbent (as a name-based assignment), constraints, pending-drift counters
// and the recent resolve history. The snapshot is independent of the session
// — later Apply/Resolve calls do not mutate it — and round-trips through
// EncodeSessionSnapshot/DecodeSessionSnapshot and NewSessionFromSnapshot.
func (s *Session) Snapshot() *SessionSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := &SessionSnapshot{
		Instance:    s.inst.Clone(),
		Sites:       s.opts.Sites,
		Solver:      s.opts.Solver,
		Constraints: s.opts.Constraints.Clone(),
		PendingOps:  s.pending,
		Resolves:    s.resolves,
		History:     append([]ResolveStats(nil), s.history...),
	}
	if s.incumbent != nil {
		if layout, err := s.incumbentLayout(); err == nil {
			snap.Incumbent = layout.ToAssignment(s.model)
			snap.IncumbentCost = s.incumbent.Cost
		}
	}
	return snap
}

// NewSessionFromSnapshot rebuilds a live session from a snapshot: the
// snapshot's instance and constraints configure the session, the incumbent
// assignment (when present) is adopted as the warm anchor of the next
// Resolve, and the resolve history and counters are restored. The options
// carry everything a snapshot does not (solver tuning, time limits, model
// parameters); zero-valued Sites, Solver and Constraints fields are filled
// from the snapshot, non-zero ones must match it.
//
// Drift that was pending at snapshot time is already folded into the
// snapshot's instance, so the restored session starts with a clean drift
// ledger: its next Resolve runs warm from the adopted incumbent but re-solves
// every decompose component instead of reusing untouched ones.
func NewSessionFromSnapshot(snap *SessionSnapshot, opts Options) (*Session, error) {
	if snap == nil || snap.Instance == nil {
		return nil, fmt.Errorf("vpart: session: snapshot has no instance")
	}
	if opts.Sites == 0 {
		opts.Sites = snap.Sites
	} else if snap.Sites != 0 && opts.Sites != snap.Sites {
		return nil, fmt.Errorf("vpart: session: options use %d sites, snapshot %d", opts.Sites, snap.Sites)
	}
	if opts.Solver == "" {
		opts.Solver = snap.Solver
	}
	if opts.Constraints.Empty() {
		opts.Constraints = snap.Constraints
	} else if !snap.Constraints.Empty() {
		return nil, fmt.Errorf("vpart: session: both the snapshot and the options carry constraints; set them in one place")
	}
	sess, err := NewSession(snap.Instance.Clone(), opts)
	if err != nil {
		return nil, err
	}
	if snap.Incumbent != nil {
		p, err := core.FromAssignment(sess.model, snap.Incumbent)
		if err != nil {
			return nil, fmt.Errorf("vpart: session: snapshot incumbent: %w", err)
		}
		if err := sess.Adopt(&Solution{Partitioning: p}); err != nil {
			return nil, err
		}
	}
	sess.mu.Lock()
	sess.resolves = snap.Resolves
	sess.history = append([]ResolveStats(nil), snap.History...)
	sess.mu.Unlock()
	return sess, nil
}

// EncodeSessionSnapshot writes a session snapshot as indented JSON.
func EncodeSessionSnapshot(w io.Writer, snap *SessionSnapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("vpart: encode session snapshot: %w", err)
	}
	return nil
}

// DecodeSessionSnapshot reads a session snapshot from JSON and validates its
// instance. Only whitespace may follow the document.
func DecodeSessionSnapshot(r io.Reader) (*SessionSnapshot, error) {
	var snap SessionSnapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("vpart: decode session snapshot: %w", err)
	}
	if err := jsonscan.Finish(dec); err != nil {
		return nil, fmt.Errorf("vpart: decode session snapshot: %w", err)
	}
	if snap.Instance != nil {
		if err := snap.Instance.Validate(); err != nil {
			return nil, fmt.Errorf("vpart: decode session snapshot: %w", err)
		}
	}
	return &snap, nil
}
