package ingest_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"vpart/internal/core"
	"vpart/internal/ingest"
	"vpart/internal/randgen"
)

// TestPipelineDeterministicAcrossGOMAXPROCS ingests the same event sequence
// through a 4-shard pipeline at GOMAXPROCS 1, 4 and NumCPU+3 (and twice at
// 1): the epoch deltas must be identical, op for op and factor for factor,
// and so must the pipeline's stats. The full row is skipped under -short.
func TestPipelineDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defaults := ingest.DefaultConfig()
	defaults.Shards = 4
	for _, tc := range []struct {
		name   string
		full   bool
		params randgen.YCSBParams
		seed   int64
		events int
		cfg    ingest.Config
	}{
		{name: "short-epochs", params: randgen.YCSBParams{Shapes: 50_000, HotShapes: 4096}, seed: 11, events: 300_000,
			cfg: ingest.Config{Shards: 4, EpochEvents: 64_000, TopK: 256, SketchWidth: 1 << 13, SketchDepth: 4, ScaleTol: 0.2}},
		{name: "default-16-batches", params: randgen.YCSBParams{Shapes: 100_000}, seed: 7, events: 16 * 8192, cfg: defaults},
		{name: "default-128-batches", full: true, params: randgen.YCSBParams{Shapes: 100_000}, seed: 7, events: 128 * 8192, cfg: defaults},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.full && testing.Short() {
				t.Skip("full configuration")
			}
			run := func(procs int) ([]ingest.Epoch, ingest.Stats) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				stream, err := randgen.NewYCSB(tc.params, tc.seed)
				if err != nil {
					t.Fatalf("NewYCSB: %v", err)
				}
				pipe, err := ingest.New(stream.Base(), tc.cfg)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				defer pipe.Close()
				batch := make([]ingest.Event, 8192)
				var epochs []ingest.Epoch
				for done := 0; done < tc.events; done += len(batch) {
					batch = batch[:min(len(batch), tc.events-done)]
					stream.Fill(batch)
					eps, err := pipe.Ingest(batch)
					if err != nil {
						t.Fatalf("Ingest: %v", err)
					}
					epochs = append(epochs, eps...)
				}
				if ep, err := pipe.FlushEpoch(); err != nil {
					t.Fatalf("FlushEpoch: %v", err)
				} else if ep != nil {
					epochs = append(epochs, *ep)
				}
				return epochs, pipe.Stats()
			}
			base, baseStats := run(1)
			if want := (tc.events + tc.cfg.EpochEvents - 1) / tc.cfg.EpochEvents; len(base) != want {
				t.Fatalf("epoch count = %d, want %d", len(base), want)
			}
			for _, procs := range []int{1, 4, runtime.NumCPU() + 3} {
				got, stats := run(procs)
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("epoch deltas diverge at GOMAXPROCS=%d", procs)
				}
				if stats != baseStats {
					t.Fatalf("stats diverge at GOMAXPROCS=%d:\n got %+v\nwant %+v", procs, stats, baseStats)
				}
			}
		})
	}
}

// TestPipelineStateSmallerThanExactCounting is the bounded-memory claim: on
// a 2^20-shape YCSB universe and 2M events, the ingest state a DefaultConfig
// pipeline reports is at least 10× smaller than the heap that exact counting
// holds — every distinct shape retained as a materialised query plus its
// count. Skipped under -short.
func TestPipelineStateSmallerThanExactCounting(t *testing.T) {
	if testing.Short() {
		t.Skip("full configuration")
	}
	const shapes, events = 1 << 20, 2_000_000
	stream := func() *randgen.EventStream {
		s, err := randgen.NewYCSB(randgen.YCSBParams{Shapes: shapes}, 11)
		if err != nil {
			t.Fatalf("NewYCSB: %v", err)
		}
		return s
	}
	batch := make([]ingest.Event, 8192)

	sketched := stream()
	pipe, err := ingest.New(sketched.Base(), ingest.DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for done := 0; done < events; done += len(batch) {
		sketched.Fill(batch)
		if _, err := pipe.Ingest(batch); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	state := pipe.Stats().StateBytes
	pipe.Close()

	type exactShape struct {
		ev    ingest.Event
		count uint64
	}
	exact := stream()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	counts := make(map[string]*exactShape)
	for done := 0; done < events; done += len(batch) {
		exact.Fill(batch)
		for i := range batch {
			key := batch[i].Txn + "\x00" + batch[i].Query
			if e := counts[key]; e != nil {
				e.count++
				continue
			}
			counts[key] = &exactShape{ev: cloneEvent(&batch[i]), count: 1}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(counts)
	exactBytes := m1.HeapAlloc - m0.HeapAlloc
	ratio := float64(exactBytes) / float64(state)
	t.Logf("ingest state %d bytes, exact counting %d bytes over %d shapes: ratio %.1f", state, exactBytes, len(counts), ratio)
	if ratio < 10 {
		t.Fatalf("exact counting over sketch state ratio %.1f < 10", ratio)
	}
}

// cloneEvent deep-copies an event, so the exact counter owns every shape it
// stores instead of sharing the stream's cached shape structures.
func cloneEvent(e *ingest.Event) ingest.Event {
	cp := *e
	cp.Accesses = nil
	for _, acc := range e.Accesses {
		acc.Attributes = append([]string(nil), acc.Attributes...)
		cp.Accesses = append(cp.Accesses, acc)
	}
	return cp
}

// TestPipelineFoldsValidInstances applies every epoch delta of both stream
// families to the base instance and checks the folded instance stays valid
// with the heavy hitters installed.
func TestPipelineFoldsValidInstances(t *testing.T) {
	for _, mk := range []struct {
		name   string
		stream func() (*randgen.EventStream, error)
	}{
		{"ycsb", func() (*randgen.EventStream, error) {
			return randgen.NewYCSB(randgen.YCSBParams{Shapes: 20_000}, 3)
		}},
		{"social", func() (*randgen.EventStream, error) {
			return randgen.NewSocial(randgen.SocialParams{Shapes: 20_000}, 3)
		}},
	} {
		t.Run(mk.name, func(t *testing.T) {
			stream, err := mk.stream()
			if err != nil {
				t.Fatalf("stream: %v", err)
			}
			pipe, err := ingest.New(stream.Base(), ingest.Config{
				Shards: 2, EpochEvents: 40_000, TopK: 128,
				SketchWidth: 1 << 13, SketchDepth: 4, ScaleTol: 0.2,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer pipe.Close()
			events := make([]ingest.Event, 120_000)
			stream.Fill(events)
			epochs, err := pipe.Ingest(events)
			if err != nil {
				t.Fatalf("Ingest: %v", err)
			}
			inst := stream.Base()
			for _, ep := range epochs {
				if inst, err = core.ApplyDelta(inst, ep.Delta); err != nil {
					t.Fatalf("epoch %d delta does not apply: %v", ep.Seq, err)
				}
			}
			if err := inst.Validate(); err != nil {
				t.Fatalf("folded instance invalid: %v", err)
			}
			stats := pipe.Stats()
			if stats.Events != 120_000 || stats.Epochs != 3 {
				t.Fatalf("stats = %+v, want 120000 events / 3 epochs", stats)
			}
			if stats.Tracked == 0 || stats.Adds == 0 {
				t.Fatalf("nothing tracked/added: %+v", stats)
			}
			if stats.StateBytes <= 0 || stats.SketchFill <= 0 {
				t.Fatalf("gauges not populated: %+v", stats)
			}
			nq := 0
			for _, tx := range inst.Workload.Transactions {
				nq += len(tx.Queries)
			}
			seed := 0
			for _, tx := range stream.Base().Workload.Transactions {
				seed += len(tx.Queries)
			}
			if nq <= seed {
				t.Fatalf("folded instance has %d queries, seed had %d — no heavy hitters installed", nq, seed)
			}
		})
	}
}

// TestPipelineLastQueryScalesToFloor builds the dropout-of-a-last-query
// scenario by hand: when every tracked query of a transaction falls out of
// the top-k, the last one is scaled to frequency 1 instead of removed.
func TestPipelineLastQueryScalesToFloor(t *testing.T) {
	base := &core.Instance{Name: "floor"}
	base.Schema.Tables = []core.Table{{Name: "x", Attributes: []core.Attribute{{Name: "a", Width: 4}}}}
	base.Workload.Transactions = []core.Transaction{{
		Name: "seedtx",
		Queries: []core.Query{{
			Name: "q", Kind: core.Read, Frequency: 1,
			Accesses: []core.TableAccess{{Table: "x", Attributes: []string{"a"}, Rows: 1}},
		}},
	}}
	if err := base.Validate(); err != nil {
		t.Fatalf("base: %v", err)
	}
	pipe, err := ingest.New(base, ingest.Config{
		Shards: 1, EpochEvents: 1 << 20, TopK: 2,
		SketchWidth: 1 << 10, SketchDepth: 4, ScaleTol: 0.1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mk := func(txn, q string) ingest.Event {
		return ingest.Event{Txn: txn, Query: q, Kind: core.Read,
			Accesses: []core.TableAccess{{Table: "x", Attributes: []string{"a"}, Rows: 1}}}
	}
	feed := func(txn, q string, n int) {
		t.Helper()
		batch := make([]ingest.Event, n)
		for i := range batch {
			batch[i] = mk(txn, q)
		}
		if _, err := pipe.Ingest(batch); err != nil {
			t.Fatalf("Ingest %s/%s: %v", txn, q, err)
		}
	}
	// Epoch 1: A and B dominate (both land in transaction "s").
	feed("s", "A", 600)
	feed("s", "B", 400)
	ep1, err := pipe.FlushEpoch()
	if err != nil || ep1 == nil {
		t.Fatalf("epoch 1: %v (%v)", err, ep1)
	}
	inst, err := core.ApplyDelta(base, ep1.Delta)
	if err != nil {
		t.Fatalf("apply epoch 1: %v", err)
	}
	// Epoch 2: C and D (other transactions) grow past both and displace them
	// from the 2-entry top-k.
	feed("o1", "C", 700)
	feed("o2", "D", 700)
	ep2, err := pipe.FlushEpoch()
	if err != nil || ep2 == nil {
		t.Fatalf("epoch 2: %v (%v)", err, ep2)
	}
	if inst, err = core.ApplyDelta(inst, ep2.Delta); err != nil {
		t.Fatalf("apply epoch 2: %v", err)
	}
	var s *core.Transaction
	for i := range inst.Workload.Transactions {
		if inst.Workload.Transactions[i].Name == "s" {
			s = &inst.Workload.Transactions[i]
		}
	}
	if s == nil {
		t.Fatal("transaction s vanished")
	}
	if len(s.Queries) != 1 {
		t.Fatalf("transaction s has %d queries, want 1 (one removed, one floored)", len(s.Queries))
	}
	if got := s.Queries[0].Frequency; got != 1 {
		t.Fatalf("floored query frequency = %g, want 1", got)
	}
	if err := inst.Validate(); err != nil {
		t.Fatalf("instance invalid after floor: %v", err)
	}
}

// TestIngestSteadyStateNoAllocs is the satellite 0-alloc guard: once every
// shape is tracked, the per-event path (route + fold) performs zero
// allocations — for the single-shard inline fold and the multi-shard
// persistent-worker fold alike.
func TestIngestSteadyStateNoAllocs(t *testing.T) {
	stream, err := randgen.NewYCSB(randgen.YCSBParams{
		Shapes: 256, HotShapes: 256,
	}, 5)
	if err != nil {
		t.Fatalf("NewYCSB: %v", err)
	}
	batch := make([]ingest.Event, 4096)
	stream.Fill(batch)
	for _, shards := range []int{1, 4} {
		pipe, err := ingest.New(stream.Base(), ingest.Config{
			Shards: shards, EpochEvents: 1 << 30, TopK: 512,
			SketchWidth: 1 << 12, SketchDepth: 4, ScaleTol: 0.2,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for i := 0; i < 8; i++ { // warm up: admit all 256 shapes, grow buffers
			if _, err := pipe.Ingest(batch); err != nil {
				t.Fatalf("warmup: %v", err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := pipe.Ingest(batch); err != nil {
				t.Fatalf("Ingest: %v", err)
			}
		})
		pipe.Close()
		if allocs != 0 {
			t.Errorf("shards=%d: steady-state Ingest allocates %.1f times per batch, want 0", shards, allocs)
		}
	}
}

// BenchmarkFold measures the sharded fold of a DefaultConfig pipeline on
// pre-generated 8192-event batches of both stream families (100k shapes,
// seed 7) and reports events per second. Every 2^20 events an epoch
// compaction runs, as it would in a live session.
func BenchmarkFold(b *testing.B) {
	for _, family := range []string{"ycsb", "social"} {
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/shards=%d", family, shards), func(b *testing.B) {
				var stream *randgen.EventStream
				var err error
				if family == "social" {
					stream, err = randgen.NewSocial(randgen.SocialParams{Shapes: 100_000}, 7)
				} else {
					stream, err = randgen.NewYCSB(randgen.YCSBParams{Shapes: 100_000}, 7)
				}
				if err != nil {
					b.Fatal(err)
				}
				batches := make([][]ingest.Event, 16)
				for i := range batches {
					batches[i] = make([]ingest.Event, 8192)
					stream.Fill(batches[i])
				}
				cfg := ingest.DefaultConfig()
				cfg.Shards = shards
				pipe, err := ingest.New(stream.Base(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer pipe.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pipe.Ingest(batches[i%len(batches)]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)*8192/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}
