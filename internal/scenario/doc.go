// Package scenario is the closed-loop stress harness of the partitioning
// advisor: it replays synthetic heavy traffic against the advisor's current
// layout on the engine simulator, feeds the observed workload back into the
// advisor, injects operational failures from a scripted timeline, and
// measures the realized cost of the layouts the advisor keeps producing
// against the layout a do-nothing operator would have kept.
//
// # The loop
//
// A scenario runs a fixed number of epochs. Each epoch:
//
//  1. applies the timeline actions scheduled for it (see below),
//  2. generates one epoch of traffic — a randgen event-stream batch for the
//     "ycsb" and "social" traffic families, or one randgen.Drift step for the
//     "drift" family — and feeds it to the advisor (stream batches through its
//     ingestor, drift steps as typed deltas),
//  3. replays the same traffic twice on the engine's Replayer: once against a
//     stale layout frozen after epoch FreezeAfter, once against the advisor's
//     current incumbent, recording realized read/write/transfer bytes, typed
//     faults and remote-read spill per epoch. Each layout is kept with the
//     model it was computed over and carried by name onto the epoch's model
//     (core.Carry), so a column added to any table but the last cannot shift
//     its placements; what a layout predates is filled without repair (new
//     transactions go to the live site holding most of their read width, new
//     attributes to the lowest live site),
//  4. lets the advisor re-solve (warm), recording the re-solve latency; the
//     new incumbent takes effect in the next epoch.
//
// The stale layout is the control group: it sees the same failures (sites
// down, capacity evictions) with only the minimal mechanical reaction an
// operator must take to keep serving, but never re-optimises. The per-epoch
// realized-cost ratio advisor/stale and the post-action cumulative costs
// quantify what the advisor's re-solves are worth.
//
// # Timeline format
//
// A Spec's Actions list is an ordered timeline (ascending Epoch, all after
// FreezeAfter so the stale control exists). Four kinds are understood:
//
//   - {Kind: SiteLoss, Epoch, Site} — the site goes down permanently. The
//     injection epoch is replayed under the old layouts with the site down, so
//     both sides surface faults; at epoch end both layouts are degraded
//     (dead-site replicas dropped, orphaned attributes re-homed, transactions
//     moved off the dead site) and the advisor additionally receives
//     ForbidAttr constraints for every attribute on the dead site, adopts the
//     degraded layout as its warm anchor and re-solves. Stream traffic only.
//   - {Kind: FlashCrowd, Epoch, Magnitude, Keys, Duration} — a hot-key spike:
//     for Duration epochs the stream redirects Magnitude of its events onto
//     the Keys hottest shapes (randgen's SetSpike knob). Stream traffic only.
//   - {Kind: CapacityShrink, Epoch, Site, Bytes} — the site's storage shrinks
//     to Bytes now: both layouts evict deterministically (widest attribute
//     first) until they fit, and the advisor additionally receives a
//     SiteCapacity constraint, adopts the evicted layout and re-solves.
//   - {Kind: DriftBurst, Epoch, Steps} — Steps extra drift deltas hit the
//     advisor in one epoch on top of the one-per-epoch background drift.
//     Drift traffic only.
//
// # Determinism
//
// A scenario run is a pure function of its Spec and the advisor's behaviour:
// traffic and failures derive from Spec.Seed, the runner is sequential and
// never consults a clock, and the engine Replayer is exact. With a
// deterministic advisor (the root package's session advisor with a fixed
// non-zero solve seed and no time limit), two runs of the same Spec produce
// bit-identical Results up to wall-clock latencies — Result.Fingerprint
// hashes everything except those, so equal fingerprints across runs are the
// reproducibility gate the benchmarks enforce.
package scenario
