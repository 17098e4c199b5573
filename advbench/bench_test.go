package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vpart/internal/randgen"
)

// Tiny cold portfolio, cold decompose and live workloads: the code paths of
// the benchmark workloads, plus the portfolio replay, at sizes that run
// in well under a second.
var tinyWorkloads = []struct {
	name string
	run  func(context.Context, runConfig) (*runResult, error)
	root string
}{
	{"cold-portfolio", coldWorkload(coldSpec{params: randgen.ClassA(6, 12, 10), sites: 3, solver: "portfolio"}), "request"},
	{"cold-decompose", coldWorkload(coldSpec{params: randgen.MultiComponent(3, 9, 18, 10), sites: 2, solver: "decompose"}), "request"},
	{"live", liveWorkload(liveSpec{
		stream: randgen.YCSBParams{Shapes: 2048, HotShapes: 256},
		batch:  256, epochs: 6, sites: 2, topK: 64,
		spikes: []spike{{from: 2, until: 4, magnitude: 0.5, keys: 512}},
	}), "epoch"},
}

// TestTinyWorkloads runs every tiny workload untraced and traced, and checks
// the report: every metric present with its unit, no failed check (so the
// traced cost equals the untraced one), and spans that nest, have
// non-negative self times and add up to their roots.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range tinyWorkloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				dir := t.TempDir()
				cfg := runConfig{workload: w.name, seed: 3, duration: time.Millisecond, traced: traced, spansDir: dir}
				res, err := w.run(context.Background(), cfg)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				line := reportLine(t, res, traced)
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d\n%s",
						traced, line.Correct, line.Failed, line.Attempted, strings.Join(res.notes, "\n"))
				}
				if traced {
					checkSpans(t, filepath.Join(dir, w.name+"-seed3.jsonl"), w.root)
				}
			}
		})
	}
}

// reportLine writes the run's report and decodes its last line, checking
// that it holds exactly the expected keys and every metric of the run's kind.
func reportLine(t *testing.T, res *runResult, traced bool) resultJSON {
	t.Helper()
	var buf bytes.Buffer
	if err := writeReport(&buf, res, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, last)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Fatalf("last line has keys %v, want correct, attempted, failed, metrics", keys)
	}
	var line resultJSON
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, d := range metricDefs {
		if d.layer != traced {
			continue
		}
		want++
		m, ok := line.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit || m.Unit == "" {
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
		if !traced && !(m.Value > 0) {
			t.Errorf("end-to-end metric %s is %v, want > 0", d.name, m.Value)
		}
	}
	if len(line.Metrics) != want {
		t.Errorf("%d metrics reported, want %d", len(line.Metrics), want)
	}
	return line
}

// checkSpans reads a spans file and checks nesting, self times and that the
// blocking-path split adds up to the roots' durations.
func checkSpans(t *testing.T, path, root string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	tree := newSpanTree(spans)
	if err := tree.check(); err != nil {
		t.Fatal(err)
	}
	roots := tree.roots(root)
	if len(roots) == 0 {
		t.Fatalf("no %q spans in %s", root, path)
	}
	want := 0.0
	for _, r := range roots {
		want += r.dur().Seconds()
	}
	got := 0.0
	for _, v := range tree.blocking(root) {
		got += v
	}
	if math.Abs(got-want) > 1e-6*float64(len(roots)) {
		t.Fatalf("blocking split sums to %v s, roots last %v s", got, want)
	}
}

// TestBlockingSplitsOverlap checks self time and the blocking split on a
// hand-built trace: a root with a sequential child and two overlapping
// shards under a pool span.
func TestBlockingSplitsOverlap(t *testing.T) {
	spans := []span{
		{Name: "request", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "core.compile", ID: 1, Parent: 0, Start: 0, End: 10},
		{Name: "decompose", ID: 2, Parent: 0, Start: 10, End: 100},
		{Name: "search", ID: 3, Parent: 2, Start: 20, End: 60},
		{Name: "search", ID: 4, Parent: 2, Start: 40, End: 90},
	}
	tree := newSpanTree(spans)
	if err := tree.check(); err != nil {
		t.Fatal(err)
	}
	if got := tree.selfTime(2); got != 20 {
		t.Errorf("decompose self time %v ns, want 20 (90 minus the 70 its shards cover)", int64(got))
	}
	block := tree.blocking("request")
	want := map[string]float64{"core.compile": 10e-9, "decompose": 20e-9, "search": 70e-9}
	for name, w := range want {
		if math.Abs(block[name]-w) > 1e-15 {
			t.Errorf("blocking[%s] = %v, want %v", name, block[name], w)
		}
	}
	bad := append([]span(nil), spans...)
	bad[4].End = 120
	if newSpanTree(bad).check() == nil {
		t.Error("a child outliving its parent passed the check")
	}
}

// TestMetricsMatchBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(listed, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", listed, names)
	}
	var defs []string
	for _, d := range metricDefs {
		defs = append(defs, d.name+"/"+d.unit)
	}
	var declared []string
	for _, m := range spec.EndToEnd {
		declared = append(declared, m.Name+"/"+m.Unit)
	}
	for _, m := range spec.PerLayer {
		declared = append(declared, m.Name+"/"+m.Unit)
	}
	if strings.Join(defs, ",") != strings.Join(declared, ",") {
		t.Errorf("BENCHMARK.json metrics\n%v\nprogram reports\n%v", declared, defs)
	}
}
