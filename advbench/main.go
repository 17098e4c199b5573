// Command advbench is the advisor's benchmark. It runs one named workload —
// a cold solve or the live loop, described in README.md — checks the
// advisor's outputs, and prints every metric by name with its unit. The last
// line of its output is one JSON object:
//
//	{"correct": true, "attempted": 42, "failed": 0, "metrics": {"solve_cpu_s": {"value": 1.48, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer split, taken from spans recorded around every call into a
// layer, and the spans are written to --spans.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash advbench/run.sh --workload live-ycsb --seed 7 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"vpart/internal/randgen"
)

// setupRepeats is how often a run builds its inputs, each time from a freshly
// collected heap; setup_s is the median.
const setupRepeats = 5

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig) (*runResult, error)
}

// workloads are the benchmark's workloads; README.md says why each was
// chosen.
var workloads = []workload{
	{name: "cold-rndAt128x400c8", run: coldWorkload(coldSpec{
		params: randgen.MultiComponent(8, 128, 400, 10), sites: 4, solver: "decompose",
	})},
	{name: "live-ycsb", run: liveWorkload(liveSpec{
		stream: randgen.YCSBParams{Shapes: 1 << 16},
		batch:  8192, epochs: 110, sites: 4, topK: 2048,
		spikes: []spike{{from: 20, until: 25, magnitude: 0.5, keys: 8192}, {from: 70, until: 75, magnitude: 0.5, keys: 8192}},
	})},
}

func coldWorkload(spec coldSpec) func(context.Context, runConfig) (*runResult, error) {
	return func(ctx context.Context, cfg runConfig) (*runResult, error) { return runCold(ctx, spec, cfg) }
}

func liveWorkload(spec liveSpec) func(context.Context, runConfig) (*runResult, error) {
	return func(ctx context.Context, cfg runConfig) (*runResult, error) { return runLive(ctx, spec, cfg) }
}

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     int64
	duration time.Duration
	traced   bool
	spansDir string
}

// rounds calls round(0), round(1), ... while the next round, taking as long as
// the last one did, still ends within d; it always runs the first least
// rounds, so a slow host still gives every statistic its samples.
func rounds(d time.Duration, least int, round func(int) error) error {
	start := time.Now()
	var last time.Duration
	for n := 0; n < max(least, 1) || time.Since(start)+last <= d; n++ {
		t := time.Now()
		if err := round(n); err != nil {
			return err
		}
		last = time.Since(t)
	}
	return nil
}

// runResult collects one run's metric values, its operation and check
// counts, and the lines of its human-readable report.
type runResult struct {
	values    map[string]float64
	attempted int
	failed    int
	notes     []string
}

func newRunResult() *runResult { return &runResult{values: map[string]float64{}} }

// op counts one operation and reports whether it succeeded.
func (r *runResult) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.notef("FAILED: %v", err)
		return false
	}
	return true
}

// check counts one output check, and a failure when it did not hold.
func (r *runResult) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.notef("CHECK FAILED: "+format, args...)
	}
}

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// finishTrace adds the tracing overhead (median traced minus median untraced
// end-to-end time per request) and the blocking time no layer accounts for,
// and reports the blocking-path split.
func finishTrace(tree *spanTree, root string, untraced []float64, block map[string]float64, out *runResult) {
	var tracedDur []float64
	for _, s := range tree.roots(root) {
		tracedDur = append(tracedDur, s.dur().Seconds())
	}
	n := float64(len(tracedDur))
	overhead := median(tracedDur) - median(untraced)
	glue := (block[root] + block["solve"]) / n
	out.values["trace.overhead_s"] = overhead
	out.values["trace.unattributed_s"] = glue

	e2e := mean(tracedDur)
	out.notef("blocking path per %s (mean over %d traced, %d untraced):", root, len(tracedDur), len(untraced))
	names := make([]string, 0, len(block))
	for name := range block {
		names = append(names, name)
	}
	sort.Strings(names)
	layers := 0.0
	for _, name := range names {
		if name == root || name == "solve" {
			continue
		}
		layers += block[name] / n
		out.notef("  %-16s %10.6f s  %5.1f%%", name, block[name]/n, 100*block[name]/n/e2e)
	}
	out.notef("  %-16s %10.6f s  %5.1f%%  (sum of layers)", "layers", layers, 100*layers/e2e)
	out.notef("  %-16s %10.6f s  (traced end to end)", root, e2e)
	out.notef("  %-16s %10.6f s  (unattributed glue)", "glue", glue)
	out.notef("  %-16s %10.6f s  (median traced minus untraced)", "overhead", overhead)
}

// writeSpans stores a traced run's spans under the spans directory.
func writeSpans(tr *tracer, cfg runConfig, out *runResult) error {
	path, err := tr.write(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if !out.op(err) {
		return err
	}
	out.notef("spans written to %s", path)
	return nil
}

// metricJSON is one metric of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the result line.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// commit returns the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("advbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	spans := fs.String("spans", ".bench_build/spans", "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var w *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *secs <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", *secs)
	}
	cfg := runConfig{
		workload: w.name, seed: *seed, traced: *trace == 1, spansDir: *spans,
		duration: time.Duration(*secs * float64(time.Second)),
	}
	fmt.Fprintf(stdout, "env go=%s commit=%s nproc=%d gomaxprocs=%d seed=%d workload=%s trace=%d seconds=%g\n",
		runtime.Version(), commit(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed, cfg.workload, *trace, *secs)

	res, err := w.run(context.Background(), cfg)
	if err != nil {
		return err
	}
	return writeReport(stdout, res, cfg.traced)
}

// writeReport prints the run's notes and metrics, then the result line: every
// end-to-end metric for an untraced run, every per-layer metric for a traced
// one. A per-layer metric the workload never reaches is reported as 0 (the
// layer is bypassed); a missing end-to-end metric is a benchmark bug.
func writeReport(stdout io.Writer, res *runResult, traced bool) error {
	line := resultJSON{
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricJSON{},
	}
	for _, d := range metricDefs {
		if d.layer != traced {
			continue
		}
		v, ok := res.values[d.name]
		if !ok && !traced {
			return fmt.Errorf("workload did not measure %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		line.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		res.notef("metric %-28s %16.6f %s", d.name, v, d.unit)
	}
	if res.attempted == 0 {
		return fmt.Errorf("the run attempted nothing")
	}
	res.notef("metric %-28s %16.6f ratio (failed operations and checks over %d attempted)",
		"failed_ratio", float64(res.failed)/float64(res.attempted), res.attempted)
	for _, note := range res.notes {
		fmt.Fprintln(stdout, note)
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(buf))
	return err
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "advbench:", err)
		os.Exit(1)
	}
}
