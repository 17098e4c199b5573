package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share a run id;
// a root span has parent -1.
type span struct {
	Name   string `json:"name"`
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. A nil *tracer records nothing, so one code
// path serves traced and untraced requests. Decompose shards call it from
// several goroutines, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, run, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Run: run, ID: id, Parent: parent, Start: now, End: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// interval is a half-open time interval in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by the intervals, each clipped
// to [lo, hi).
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		if open && iv.lo <= curHi {
			curHi = max(curHi, iv.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv.lo, iv.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanTree indexes a span set by parent.
type spanTree struct {
	spans    []span
	children map[int][]int
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, children: map[int][]int{}}
	for _, s := range spans {
		if s.Parent >= 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s.ID)
		}
	}
	return t
}

// selfTime is a span's duration minus the union of its children's intervals;
// shards overlap, so children are merged rather than summed.
func (t *spanTree) selfTime(id int) time.Duration {
	s := t.spans[id]
	ivs := make([]interval, 0, len(t.children[id]))
	for _, c := range t.children[id] {
		ivs = append(ivs, interval{t.spans[c].Start, t.spans[c].End})
	}
	return s.dur() - time.Duration(unionLen(ivs, s.Start, s.End))
}

// check verifies that every span is closed, children lie within their
// parent, and self times are non-negative.
func (t *spanTree) check() error {
	for _, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %s (run %d) was never closed", s.Name, s.Run)
		}
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %s (run %d) leaves its parent %s", s.Name, s.Run, p.Name)
			}
			if s.Run != p.Run {
				return fmt.Errorf("span %s has run %d, its parent %s run %d", s.Name, s.Run, p.Name, p.Run)
			}
		}
		if self := t.selfTime(s.ID); self < 0 {
			return fmt.Errorf("span %s (run %d) has negative self time %v", s.Name, s.Run, self)
		}
	}
	return nil
}

// blocking attributes every instant of each root span to the innermost spans
// open at that instant (those with no open child), splitting it evenly when
// several overlap (parallel shards). The result maps span name to attributed
// time summed over roots named root, in seconds; it adds up to the roots'
// total duration, so it is the per-layer split of the blocking path.
func (t *spanTree) blocking(root string) map[string]float64 {
	out := map[string]float64{}
	for _, r := range t.roots(root) {
		var members []int
		var walk func(id int)
		walk = func(id int) {
			members = append(members, id)
			for _, c := range t.children[id] {
				walk(c)
			}
		}
		walk(r.ID)
		var cuts []int64
		for _, id := range members {
			cuts = append(cuts, t.spans[id].Start, t.spans[id].End)
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		open := func(id int, lo, hi int64) bool {
			return t.spans[id].Start <= lo && t.spans[id].End >= hi
		}
		for i := 0; i+1 < len(cuts); i++ {
			lo, hi := cuts[i], cuts[i+1]
			if lo == hi {
				continue
			}
			var inner []string
			for _, id := range members {
				if !open(id, lo, hi) {
					continue
				}
				leaf := true
				for _, c := range t.children[id] {
					if open(c, lo, hi) {
						leaf = false
						break
					}
				}
				if leaf {
					inner = append(inner, t.spans[id].Name)
				}
			}
			for _, n := range inner {
				out[n] += float64(hi-lo) / 1e9 / float64(len(inner))
			}
		}
	}
	return out
}

// roots returns the root spans with the given name.
func (t *spanTree) roots(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Parent < 0 && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations of every span with the given name.
func (t *spanTree) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}
