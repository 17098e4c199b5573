package vpart

import (
	"fmt"
	"sync"

	"vpart/internal/ingest"
)

// Streaming ingestion types, re-exported from internal/ingest. A QueryEvent
// is one observed query execution; an Ingestor folds an unbounded stream of
// them into a Session with bounded memory (count-min sketches plus a
// heavy-hitter top-k), emitting one coalesced WorkloadDelta per epoch.
type (
	// QueryEvent is one observed query execution (the name avoids the
	// progress-event type Event).
	QueryEvent = ingest.Event
	// IngestConfig sizes the sketches, top-k and epochs of an Ingestor.
	IngestConfig = ingest.Config
	// IngestEpoch is one completed epoch compaction: the delta applied to
	// the session plus churn counters.
	IngestEpoch = ingest.Epoch
	// IngestStats is a snapshot of an Ingestor's counters and gauges.
	IngestStats = ingest.Stats
)

// DefaultIngestConfig returns the ingestion configuration the daemon and the
// benchmarks start from (one shard, 1M-event epochs, 512 tracked shapes,
// ~1 MiB of sketch state).
func DefaultIngestConfig() IngestConfig { return ingest.DefaultConfig() }

// An Ingestor folds a query-event stream into its Session. Each completed
// epoch's delta is applied through Session.Apply — the same compile and
// warm-resolve path hand-built deltas take — so a Resolve after some
// ingestion warm-starts exactly as if the drift had been fed by hand.
// Safe for concurrent use; Ingest calls serialise on an internal mutex.
//
//	sess, _ := vpart.NewSession(stream.Base(), vpart.Options{Sites: 4, Solver: "decompose"})
//	ing, _ := sess.NewIngestor(vpart.DefaultIngestConfig())
//	defer ing.Close()
//	for batch := range batches {
//	        if _, err := ing.Ingest(batch); err != nil { ... }
//	}
//	ing.FlushEpoch()                   // fold the partial epoch
//	sol, stats, _ := sess.Resolve(ctx) // warm re-solve over the folded workload
type Ingestor struct {
	mu     sync.Mutex
	sess   *Session
	pipe   *ingest.Pipeline
	broken error
}

// NewIngestor builds an ingestor over the session's current instance. The
// instance's queries seed the ingestor's shadow bookkeeping, so stream
// observations of seed queries rescale their frequencies rather than
// duplicate them. Create the ingestor before applying other deltas and route
// all workload drift through it (mixing hand-built deltas into an ingesting
// session desynchronises the shadow).
func (s *Session) NewIngestor(cfg IngestConfig) (*Ingestor, error) {
	pipe, err := ingest.New(s.Instance(), cfg)
	if err != nil {
		return nil, fmt.Errorf("vpart: session: %w", err)
	}
	return &Ingestor{sess: s, pipe: pipe}, nil
}

// Ingest folds a batch of events, applying every completed epoch's delta to
// the session. The returned epochs report what was applied (usually none —
// epochs are EpochEvents long). An apply failure (events referencing tables
// or attributes the schema lacks) permanently breaks the ingestor: the
// session stays consistent, but the stream's bookkeeping cannot be resumed.
func (ig *Ingestor) Ingest(events []QueryEvent) ([]IngestEpoch, error) {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	if ig.broken != nil {
		return nil, ig.broken
	}
	epochs, err := ig.pipe.Ingest(events)
	if err != nil {
		ig.broken = err
		return nil, err
	}
	for i := range epochs {
		if err := ig.sess.Apply(epochs[i].Delta); err != nil {
			ig.broken = fmt.Errorf("vpart: ingestor: epoch %d: %w", epochs[i].Seq, err)
			return epochs[:i], ig.broken
		}
	}
	return epochs, nil
}

// FlushEpoch forces an epoch boundary now and applies the resulting delta,
// returning nil when no events arrived since the last boundary. Call it
// before a Resolve to fold the partial epoch in.
func (ig *Ingestor) FlushEpoch() (*IngestEpoch, error) {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	if ig.broken != nil {
		return nil, ig.broken
	}
	ep, err := ig.pipe.FlushEpoch()
	if err != nil {
		ig.broken = err
		return nil, err
	}
	if ep == nil {
		return nil, nil
	}
	if err := ig.sess.Apply(ep.Delta); err != nil {
		ig.broken = fmt.Errorf("vpart: ingestor: epoch %d: %w", ep.Seq, err)
		return nil, ig.broken
	}
	return ep, nil
}

// Stats snapshots the ingestor's counters and gauges (events, epochs,
// tracked shapes, sketch fill, state bytes).
func (ig *Ingestor) Stats() IngestStats {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	return ig.pipe.Stats()
}

// Close stops the ingestor's flush workers (multi-shard configurations spawn
// one goroutine per shard). The ingestor must not be used after Close.
func (ig *Ingestor) Close() {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	ig.pipe.Close()
}
