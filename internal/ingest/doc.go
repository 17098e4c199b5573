// Package ingest folds an unbounded stream of query events into the live
// Session/WorkloadDelta machinery with bounded memory. The paper assumes the
// workload and its statistics are known up front; at production traffic scale
// they arrive as millions of query events, far too many to count exactly.
// This package is the ingress: a high-throughput, allocation-free hot path
// estimates per-shape frequencies with count-min sketches, a
// space-saving-style top-k structure keeps only the heavy-hitter query
// shapes as real core.Query objects, and event-count-based epochs compact
// the tracked set into minimal WorkloadDelta batches a Session consumes
// through Session.Apply and its warm-resolve path.
//
// # Pipeline
//
// A Pipeline is built over a base instance (typically a skeleton: the schema
// plus a minimal seed workload) and a Config. Events are ingested in batches;
// the per-event cost is a hash, a shard-buffer append and — at shard flush —
// a handful of array writes into the shard's count-min sketch plus one
// top-k heap fixup, so millions of events per second fold on a single core
// and the steady-state path performs no allocations.
//
// Epochs are event-count-based (Config.EpochEvents), never wall-clock-based,
// so a fixed event sequence with a fixed shard count reproduces the same
// epoch deltas bit for bit at any GOMAXPROCS. At each epoch boundary the
// pipeline diffs the current top-k against its shadow of the live workload
// and emits a minimal delta: AddQuery for newly heavy shapes, ScaleFreq for
// tracked shapes whose estimated frequency moved beyond Config.ScaleTol, and
// RemoveQuery for stream-added shapes that fell out of the top-k (a
// transaction's last query is scaled down to frequency 1 instead, because a
// workload transaction must stay non-empty). Each shape gets at most one op
// per epoch, so compaction emits the delta directly, with nothing to
// coalesce: adds, then scales, each in the order compaction met them, then
// removes sorted by transaction and query name.
//
// Frequencies are expressed in stream counts: an AddQuery enters with the
// shape's estimated cumulative count, and seed queries that are observed in
// the stream are rescaled into the same unit. Relative frequencies are what
// the cost model cares about, so the growing absolute scale is harmless.
//
// # Sketching
//
// Each shard owns a count-min sketch (Config.SketchWidth × Config.SketchDepth
// counters) and a top-k structure of Config.TopK entries. Shapes are routed
// to shards by their 64-bit FNV-1a hash, so shards own disjoint shape sets
// and can be flushed concurrently without any cross-shard coordination; the
// epoch merge concatenates the per-shard entries in shard order and sorts
// deterministically. Admission into the top-k is gated by the sketch
// estimate: a shape displaces the current minimum entry only when its
// estimated count exceeds the minimum, which keeps the long zipfian tail out
// of the structure (and off the allocator — copying a shape into the top-k
// is the only allocating operation, and it is amortized away once the heavy
// hitters are tracked).
//
// The classic guarantees carry over: a sketch estimate err is one-sided
// (estimate ≥ true count) and bounded by ε·N with probability 1−δ for
// ε = e/width and δ = e^−depth; a top-k entry's true count lies within
// [count−err, count] for the entry's recorded admission error.
package ingest
