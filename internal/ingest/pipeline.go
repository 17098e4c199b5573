package ingest

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"vpart/internal/core"
)

// Config sizes a Pipeline. The zero value is unusable; fill the fields or
// start from DefaultConfig.
type Config struct {
	// Shards is the number of independent sketch/top-k shards. Shapes are
	// routed by hash, so shards own disjoint shape sets and fold their event
	// buffers concurrently. Results are deterministic for a fixed shard
	// count at any GOMAXPROCS; changing the shard count changes which shapes
	// compete for top-k slots and may change results.
	Shards int
	// EpochEvents is the epoch length in events: every EpochEvents ingested
	// events the pipeline compacts the tracked set into a WorkloadDelta.
	// Event-count-based on purpose — epochs never consult a clock.
	EpochEvents int
	// TopK is the total number of heavy-hitter shapes tracked as real query
	// objects, split evenly across shards.
	TopK int
	// SketchWidth is the per-shard count-min sketch width (power of two);
	// SketchDepth its number of rows (≤ 8). The one-sided error bound is
	// ε·N with ε = e/SketchWidth, missed with probability e^−SketchDepth.
	SketchWidth int
	SketchDepth int
	// ScaleTol is the relative frequency change a tracked shape must
	// accumulate before compaction emits a ScaleFreq (0.2 = 20 %). Smaller
	// values track the stream tighter at the price of chattier deltas.
	ScaleTol float64
}

// DefaultConfig returns the configuration the benchmarks and the daemon start
// from: one shard, 1M-event epochs, 512 tracked shapes, a 32768×4 sketch
// (ε ≈ 8.3e-5, δ ≈ 1.8 %) and a 20 % scale tolerance — about 1 MiB of sketch
// state per shard.
func DefaultConfig() Config {
	return Config{
		Shards:      1,
		EpochEvents: 1 << 20,
		TopK:        512,
		SketchWidth: 1 << 15,
		SketchDepth: 4,
		ScaleTol:    0.2,
	}
}

func (c *Config) validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("ingest: config: Shards must be ≥ 1, got %d", c.Shards)
	}
	if c.EpochEvents < 1 {
		return fmt.Errorf("ingest: config: EpochEvents must be ≥ 1, got %d", c.EpochEvents)
	}
	if c.TopK < 1 {
		return fmt.Errorf("ingest: config: TopK must be ≥ 1, got %d", c.TopK)
	}
	if c.SketchWidth < 2 || c.SketchWidth&(c.SketchWidth-1) != 0 {
		return fmt.Errorf("ingest: config: SketchWidth must be a power of two ≥ 2, got %d", c.SketchWidth)
	}
	if c.SketchDepth < 1 || c.SketchDepth > len(sketchSalts) {
		return fmt.Errorf("ingest: config: SketchDepth must be in [1, %d], got %d", len(sketchSalts), c.SketchDepth)
	}
	if c.ScaleTol <= 0 {
		return fmt.Errorf("ingest: config: ScaleTol must be > 0, got %g", c.ScaleTol)
	}
	return nil
}

// Epoch is one completed compaction: the minimal delta turning the previous
// epoch's folded workload into this one's, plus bookkeeping for metrics.
type Epoch struct {
	// Seq is the 1-based epoch number.
	Seq int
	// Events is the cumulative event count at the epoch boundary.
	Events uint64
	// Delta is the compacted edit batch; feed it to Session.Apply (the
	// Ingestor facade does) or core.ApplyDelta.
	Delta core.WorkloadDelta
	// Adds, Removes and Scales count the delta's ops by kind; Adds+Removes
	// is the epoch's heavy-hitter churn.
	Adds, Removes, Scales int
}

// Stats is a point-in-time snapshot of a pipeline's counters.
type Stats struct {
	// Events is the total number of events ingested.
	Events uint64
	// Epochs is the number of completed compactions.
	Epochs int
	// Tracked is the number of shapes currently held as real query objects
	// across all shards.
	Tracked int
	// SketchFill is the mean fraction of non-zero sketch counters across
	// shards (saturation gauge; recomputed on every call, O(sketch size)).
	SketchFill float64
	// StateBytes estimates the retained bytes of all ingest state: sketches,
	// top-k structures, buffers and compaction bookkeeping. This is the
	// number the "bounded memory" claim is about.
	StateBytes int
	// Adds, Removes and Scales are cumulative delta-op counts across epochs.
	Adds, Removes, Scales uint64
}

// pending is one routed event awaiting its shard's fold.
type pending struct {
	key uint64
	ev  *Event
}

// shardState is one shard: a sketch, a top-k and an event buffer, owned
// exclusively by the shard's worker during folds.
type shardState struct {
	sk  *sketch
	tk  *topk
	buf []pending
}

// fold drains the shard's buffer into its sketch and top-k. Steady state —
// every heavy hitter already tracked — performs no allocations: a sketch add
// plus a heap bump per event, and the tail never passes the admission gate.
//
//vpart:noalloc
func (sh *shardState) fold() {
	for i := range sh.buf {
		p := &sh.buf[i]
		est := sh.sk.add(p.key)
		if sh.tk.bump(p.key) {
			continue
		}
		if est > sh.tk.min() {
			sh.tk.offer(p.key, est, p.ev)
		}
	}
	sh.buf = sh.buf[:0]
}

// tracked is the pipeline's shadow of the folded workload: one record per
// query the live instance holds, in deterministic first-touch order (seed
// queries first). Compaction iterates the slice, never a map.
type trackedShape struct {
	key        uint64
	txn, query string
	freq       float64 // frequency currently installed in the instance
	fromStream bool    // added by an epoch delta (removable); false = seed
	live       bool    // false once removed by a compaction
}

// Pipeline folds a query-event stream into epoch-sized WorkloadDelta batches
// with bounded memory. Build one over the base instance a Session was created
// from, feed it batches of events with Ingest, and apply each returned
// Epoch's delta to the session. Not safe for concurrent use — callers
// serialise Ingest/FlushEpoch/Stats (the daemon's per-session worker does).
type Pipeline struct {
	cfg    Config
	shards []*shardState

	// Persistent flush workers (Shards > 1 only): work has one slot per
	// shard; workers fold their shard and signal wg. Spawned once so the
	// steady-state ingest path allocates nothing.
	work   []chan struct{}
	wg     sync.WaitGroup
	stop   chan struct{}
	closed bool

	tracked    []trackedShape
	trackedIdx map[uint64]int32
	txnLive    map[string]int // live query count per transaction

	events    uint64 // total ingested
	epochEv   int    // events in the current (open) epoch
	epochs    int
	adds      uint64
	removes   uint64
	scales    uint64
	topkeys   map[uint64]bool // scratch: keys in the current global top-k
	mergedBuf []mergedEntry   // scratch: reused across compactions
}

type mergedEntry struct {
	e     *entry
	shard int
}

// New builds a pipeline over base (the instance the consuming session was
// created from). The base workload seeds the shadow bookkeeping: its queries
// are tracked as non-removable, and when the stream observes one of them its
// frequency is rescaled into stream counts like every other shape.
func New(base *core.Instance, cfg Config) (*Pipeline, error) {
	if base == nil {
		return nil, fmt.Errorf("ingest: nil base instance")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	kPer := (cfg.TopK + cfg.Shards - 1) / cfg.Shards
	p := &Pipeline{
		cfg:        cfg,
		shards:     make([]*shardState, cfg.Shards),
		trackedIdx: map[uint64]int32{},
		txnLive:    map[string]int{},
		topkeys:    make(map[uint64]bool, cfg.TopK*2),
	}
	for i := range p.shards {
		p.shards[i] = &shardState{
			sk:  newSketch(cfg.SketchWidth, cfg.SketchDepth),
			tk:  newTopk(kPer),
			buf: make([]pending, 0, 1024),
		}
	}
	for ti := range base.Workload.Transactions {
		tx := &base.Workload.Transactions[ti]
		for qi := range tx.Queries {
			q := &tx.Queries[qi]
			key := shapeKey(tx.Name, q.Name)
			if _, dup := p.trackedIdx[key]; dup {
				return nil, fmt.Errorf("ingest: base workload has colliding shape %s/%s", tx.Name, q.Name)
			}
			p.trackedIdx[key] = int32(len(p.tracked))
			p.tracked = append(p.tracked, trackedShape{
				key: key, txn: tx.Name, query: q.Name,
				freq: q.Frequency, live: true,
			})
			p.txnLive[tx.Name]++
		}
	}
	if cfg.Shards > 1 {
		p.stop = make(chan struct{})
		p.work = make([]chan struct{}, cfg.Shards)
		for i := range p.work {
			p.work[i] = make(chan struct{}, 1)
			go p.worker(i)
		}
	}
	return p, nil
}

// worker is the persistent flush goroutine of shard i.
func (p *Pipeline) worker(i int) {
	sh := p.shards[i]
	for {
		select {
		case <-p.work[i]:
			sh.fold()
			p.wg.Done()
		case <-p.stop:
			return
		}
	}
}

// Close stops the flush workers. Only required for multi-shard pipelines,
// harmless otherwise; the pipeline must not be used after Close.
func (p *Pipeline) Close() {
	// The workers select on p.stop, so the field itself must stay
	// untouched here; the flag alone makes Close idempotent.
	if p.stop != nil && !p.closed {
		p.closed = true
		close(p.stop)
	}
}

// Ingest folds a batch of events and returns the epochs the batch completed
// (usually none; one or more when the cumulative event count crossed epoch
// boundaries). Events are processed fully before return — the caller may
// reuse the batch slice. The steady-state per-event cost is one hash, one
// buffer append and, at fold time, SketchDepth array increments plus a heap
// fixup; no allocations once the heavy hitters are tracked.
//
// Events are not validated here (see Event.Validate) and their table and
// attribute names must exist in the base schema, or applying the resulting
// epoch delta will fail. Compaction itself cannot fail, so the error is nil.
func (p *Pipeline) Ingest(events []Event) ([]Epoch, error) {
	var out []Epoch
	// Counted loop: each round consumes n ≥ 1 events (an epoch always has
	// room — compaction resets the counter the moment it fills).
	for off, n := 0, 0; off < len(events); off += n {
		room := p.cfg.EpochEvents - p.epochEv
		n = room
		if rest := len(events) - off; rest < n {
			n = rest
		}
		p.route(events[off : off+n])
		p.flushAll()
		p.epochEv += n
		p.events += uint64(n)
		if p.epochEv == p.cfg.EpochEvents {
			out = append(out, p.compact())
		}
	}
	return out, nil
}

// route hashes each event to its shard buffer.
func (p *Pipeline) route(events []Event) {
	nshards := uint64(len(p.shards))
	for i := range events {
		e := &events[i]
		key := shapeKey(e.Txn, e.Query)
		si := 0
		if nshards > 1 {
			si = int(key % nshards)
		}
		sh := p.shards[si]
		sh.buf = append(sh.buf, pending{key: key, ev: e})
	}
}

// flushAll folds every non-empty shard buffer, concurrently when the pipeline
// is sharded. Each shard's events fold in stream order and shards share no
// state, so the result is independent of GOMAXPROCS and scheduling.
func (p *Pipeline) flushAll() {
	if p.work == nil {
		p.shards[0].fold()
		return
	}
	for i, sh := range p.shards {
		if len(sh.buf) == 0 {
			continue
		}
		p.wg.Add(1)
		p.work[i] <- struct{}{}
	}
	p.wg.Wait()
}

// FlushEpoch forces an epoch boundary now, compacting whatever the current
// partial epoch accumulated. Returns nil when no events arrived since the
// last boundary. The daemon uses this to keep sparse event flows moving; the
// Ingestor facade uses it on demand before a resolve. As with Ingest, the
// error is nil.
func (p *Pipeline) FlushEpoch() (*Epoch, error) {
	if p.epochEv == 0 {
		return nil, nil
	}
	ep := p.compact()
	return &ep, nil
}

// compact closes the current epoch: merge the per-shard top-k entries into
// the global top-K, diff against the tracked shadow and build the minimal
// delta. Deterministic by construction — shard-order concatenation, a total
// sort order and slice (never map) iteration.
func (p *Pipeline) compact() Epoch {
	merged := p.mergedBuf[:0]
	for si, sh := range p.shards {
		for ei := range sh.tk.entries {
			merged = append(merged, mergedEntry{e: &sh.tk.entries[ei], shard: si})
		}
	}
	// Counts descending, then names: each (transaction, query) lives in one
	// shard, so no two entries tie and any sort gives this one order.
	byCount := func(x, y mergedEntry) int {
		a, b := x.e, y.e
		if c := cmp.Compare(b.count, a.count); c != 0 {
			return c
		}
		if c := strings.Compare(a.txn, b.txn); c != 0 {
			return c
		}
		return strings.Compare(a.query, b.query)
	}
	sorted := len(merged) > p.cfg.TopK
	if sorted {
		slices.SortFunc(merged, byCount)
		merged = merged[:p.cfg.TopK]
	}
	p.mergedBuf = merged[:0]

	clear(p.topkeys)
	for _, m := range merged {
		p.topkeys[m.e.key] = true
	}

	// Only the entries that emit an op depend on the merged order, so only
	// they are kept and sorted: a subset of a total order keeps its
	// relative order, and the ops come out as a full sort would give them.
	emit := merged[:0]
	for _, m := range merged {
		if p.emitsOp(m.e) {
			emit = append(emit, m)
		}
	}
	if !sorted {
		slices.SortFunc(emit, byCount)
	}

	// Pass 1 visits each top-k shape once and pass 2 only shapes outside
	// the top-k, so every (transaction, query) gets at most one op. The
	// delta lists adds, then scales, each in the order compaction met them,
	// then removes sorted by name: adds first keep a transaction non-empty
	// when one of its queries is removed and another added.
	var adds, scales, removes []core.DeltaOp
	add := func(txn string, e *entry) {
		adds = append(adds, core.AddQuery{Txn: txn, Query: core.Query{
			Name:      e.query,
			Kind:      e.kind,
			Frequency: float64(e.count),
			Accesses:  cloneAccesses(e.accs),
		}})
	}

	// Pass 1, in merged (global top) order: adds for untracked shapes,
	// re-adds for removed ones and rescales for tracked ones that drifted
	// beyond tolerance.
	for _, m := range emit {
		e := m.e
		ti, ok := p.trackedIdx[e.key]
		if !ok {
			add(e.txn, e)
			p.trackedIdx[e.key] = int32(len(p.tracked))
			p.tracked = append(p.tracked, trackedShape{
				key: e.key, txn: e.txn, query: e.query,
				freq: float64(e.count), fromStream: true, live: true,
			})
			p.txnLive[e.txn]++
			continue
		}
		t := &p.tracked[ti]
		if !t.live {
			// Removed in an earlier epoch, heavy again now: re-add.
			add(t.txn, e)
			t.freq = float64(e.count)
			t.live = true
			p.txnLive[t.txn]++
			continue
		}
		f := float64(e.count)
		scales = append(scales, core.ScaleFreq{Txn: t.txn, Query: t.query, Factor: f / t.freq})
		t.freq = f
	}

	// Pass 2, in tracked (first-touch) order: stream-added shapes that fell
	// out of the global top-k are removed — unless that would empty their
	// transaction, in which case their frequency is scaled down to 1 and the
	// shape stays tracked (dormant at the floor, rescaled if it returns).
	for ti := range p.tracked {
		t := &p.tracked[ti]
		if !t.live || !t.fromStream || p.topkeys[t.key] {
			continue
		}
		if p.txnLive[t.txn] > 1 {
			removes = append(removes, core.RemoveQuery{Txn: t.txn, Query: t.query})
			t.live = false
			p.txnLive[t.txn]--
			continue
		}
		if t.freq != 1 {
			scales = append(scales, core.ScaleFreq{Txn: t.txn, Query: t.query, Factor: 1 / t.freq})
			t.freq = 1
		}
	}
	slices.SortFunc(removes, func(a, b core.DeltaOp) int {
		x, y := a.(core.RemoveQuery), b.(core.RemoveQuery)
		return cmp.Or(strings.Compare(x.Txn, y.Txn), strings.Compare(x.Query, y.Query))
	})

	ops := make([]core.DeltaOp, 0, len(adds)+len(scales)+len(removes))
	ops = append(append(append(ops, adds...), scales...), removes...)

	p.epochs++
	p.epochEv = 0
	p.adds += uint64(len(adds))
	p.removes += uint64(len(removes))
	p.scales += uint64(len(scales))
	return Epoch{
		Seq:     p.epochs,
		Events:  p.events,
		Delta:   core.WorkloadDelta{Ops: ops},
		Adds:    len(adds),
		Removes: len(removes),
		Scales:  len(scales),
	}
}

// emitsOp reports whether compaction's pass 1 emits an op for the top-k
// entry e: an add for an untracked shape, a re-add for a removed one, or a
// rescale for a tracked one whose count drifted beyond ScaleTol. Each shape
// has one entry, and pass 1 changes only the tracking of the entry it
// visits, so the answer does not depend on the order of the visits.
func (p *Pipeline) emitsOp(e *entry) bool {
	ti, ok := p.trackedIdx[e.key]
	if !ok || !p.tracked[ti].live {
		return true
	}
	rel := float64(e.count)/p.tracked[ti].freq - 1
	return rel > p.cfg.ScaleTol || rel < -p.cfg.ScaleTol
}

// Stats snapshots the pipeline's counters and recomputes the state-size and
// sketch-fill gauges.
func (p *Pipeline) Stats() Stats {
	s := Stats{
		Events:  p.events,
		Epochs:  p.epochs,
		Adds:    p.adds,
		Removes: p.removes,
		Scales:  p.scales,
	}
	fill := 0.0
	for _, sh := range p.shards {
		s.Tracked += len(sh.tk.entries)
		fill += sh.sk.fill()
	}
	fill /= float64(len(p.shards))
	s.SketchFill = fill
	s.StateBytes = p.StateBytes()
	return s
}

// StateBytes estimates the retained bytes of all pipeline state: sketches,
// top-k structures, shard buffers and the tracked-shape shadow. This is the
// memory that stays bounded no matter how many distinct shapes the stream
// carries.
func (p *Pipeline) StateBytes() int {
	const pendingSize = 16
	const trackedSize = 72
	n := 0
	for _, sh := range p.shards {
		n += sh.sk.bytes()
		n += sh.tk.stateBytes()
		n += cap(sh.buf) * pendingSize
	}
	n += cap(p.tracked) * trackedSize
	n += len(p.trackedIdx) * 16
	n += len(p.txnLive) * 24
	n += cap(p.mergedBuf) * 16
	return n
}
