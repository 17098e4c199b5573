package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vpart"
)

// captureStdout runs f while capturing everything written to os.Stdout.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := f()
	w.Close()
	os.Stdout = old
	out, err := os.ReadFile(pipeToFile(t, r))
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// pipeToFile drains a pipe into a temp file and returns its path (avoids
// deadlocks for large outputs).
func pipeToFile(t *testing.T, r *os.File) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 64*1024)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if _, werr := f.Write(buf[:n]); werr != nil {
				t.Fatal(werr)
			}
		}
		if err != nil {
			break
		}
	}
	return path
}

func TestRunTPCCWithSA(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run(context.Background(), []string{"-tpcc", "-sites", "2", "-solver", "sa", "-quiet"})
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	for _, want := range []string{"TPC-C", "objective (4)", "single-site baseline", "reduction"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunClassInstanceWithLayout(t *testing.T) {
	dir := t.TempDir()
	layout := filepath.Join(dir, "layout.json")
	out, err := captureStdout(t, func() error {
		return run(context.Background(), []string{"-class", "rndBt4x15", "-sites", "2", "-solver", "sa", "-out", layout})
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !strings.Contains(out, "Site 1") || !strings.Contains(out, "Site 2") {
		t.Errorf("layout not printed:\n%s", out)
	}
	if _, err := os.Stat(layout); err != nil {
		t.Fatalf("assignment file not written: %v", err)
	}
	as, err := vpart.LoadAssignment(layout)
	if err != nil {
		t.Fatalf("assignment unreadable: %v", err)
	}
	if as.Sites != 2 {
		t.Errorf("assignment has %d sites", as.Sites)
	}
}

func TestRunInstanceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "inst.json")
	if err := vpart.SaveInstance(path, vpart.TPCC()); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return run(context.Background(), []string{"-instance", path, "-sites", "2", "-solver", "sa", "-quiet", "-p", "0"})
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !strings.Contains(out, "objective (4)") {
		t.Errorf("missing cost output:\n%s", out)
	}
}

func TestRunQPSolverOnSmallClass(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run(context.Background(), []string{"-class", "rndBt4x15", "-sites", "2", "-solver", "qp",
			"-timeout", "10s", "-quiet", "-disjoint"})
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !strings.Contains(out, "optimal:") {
		t.Errorf("QP statistics missing:\n%s", out)
	}
}

func TestRunWritesDDLAndReport(t *testing.T) {
	dir := t.TempDir()
	ddl := filepath.Join(dir, "fragments.sql")
	rep := filepath.Join(dir, "report.md")
	_, err := captureStdout(t, func() error {
		return run(context.Background(), []string{"-tpcc", "-sites", "2", "-solver", "sa", "-quiet", "-ddl", ddl, "-report", rep})
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	ddlBytes, err := os.ReadFile(ddl)
	if err != nil || !strings.Contains(string(ddlBytes), "CREATE TABLE") {
		t.Errorf("DDL file missing or empty: %v", err)
	}
	repBytes, err := os.ReadFile(rep)
	if err != nil || !strings.Contains(string(repBytes), "# Vertical partitioning report") {
		t.Errorf("report file missing or empty: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                               // no instance selected
		{"-tpcc", "-class", "rndAt4x15"}, // mutually exclusive
		{"-tpcc", "-instance", "x.json"}, // mutually exclusive
		{"-class", "does-not-exist", "-sites", "2"},              // unknown class
		{"-instance", "/does/not/exist.json", "-sites", "2"},     // missing file
		{"-tpcc", "-sites", "0"},                                 // invalid sites
		{"-tpcc", "-sites", "2", "-solver", "magic"},             // unknown solver
		{"-tpcc", "-sites", "2", "-solver", "qp", "-gap", "-1"},  // negative gap
		{"-tpcc", "-sites", "2", "-solver", "qp", "-gap", "NaN"}, // non-finite gap
		{"-tpcc", "-sites", "2", "-solver", "qp", "-gap", "+Inf"},
	}
	for i, args := range cases {
		if _, err := captureStdout(t, func() error { return run(context.Background(), args) }); err == nil {
			t.Errorf("case %d (%v): expected an error", i, args)
		}
	}
}

func TestLoadInstanceHelper(t *testing.T) {
	if _, err := loadInstance("", false, "", 1); err == nil {
		t.Error("no selection accepted")
	}
	inst, err := loadInstance("", true, "", 1)
	if err != nil || inst.Name != "TPC-C v5" {
		t.Errorf("tpcc selection failed: %v", err)
	}
	inst, err = loadInstance("", false, "rndAt4x15", 3)
	if err != nil || inst.Name != "rndAt4x15" {
		t.Errorf("class selection failed: %v", err)
	}
}

func TestRunDecomposePreprocess(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run(context.Background(), []string{
			"-class", "rndAt32x120c4", "-sites", "2", "-solver", "sa",
			"-preprocess", "decompose", "-seed", "1", "-quiet",
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "solver: decompose/sa") {
		t.Errorf("output missing decompose solver tag:\n%s", out)
	}
	if !strings.Contains(out, "decomposed into") || !strings.Contains(out, "shard 0:") {
		t.Errorf("output missing shard report:\n%s", out)
	}
}

func TestRunConstrainedSolve(t *testing.T) {
	// A constraints file plus -pin shorthand, merged into one set the solve
	// must honour (the CLI errors out when the solver violates it).
	dir := t.TempDir()
	consPath := filepath.Join(dir, "cons.json")
	cons := &vpart.Constraints{
		ForbidAttrs: []vpart.ForbidAttr{{Attr: vpart.QualifiedAttr{Table: "Customer", Attr: "C_DATA"}, Site: 0}},
	}
	if err := vpart.SaveConstraints(consPath, cons); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return run(context.Background(), []string{
			"-tpcc", "-sites", "3", "-solver", "sa", "-seed", "1", "-quiet",
			"-constraints", consPath,
			"-pin", "txn=NewOrder:0,attr=Warehouse.W_ID:0",
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "constraints:") {
		t.Errorf("output missing the constraints summary:\n%s", out)
	}
	if !strings.Contains(out, "1 pin-txn") || !strings.Contains(out, "1 forbid") {
		t.Errorf("merged constraint summary wrong:\n%s", out)
	}
}

func TestLoadConstraintsPinSpecs(t *testing.T) {
	cons, err := loadConstraints("", "txn=NewOrder:2, attr=Warehouse.W_ID:0")
	if err != nil {
		t.Fatal(err)
	}
	if len(cons.PinTxns) != 1 || cons.PinTxns[0] != (vpart.PinTxn{Txn: "NewOrder", Site: 2}) {
		t.Errorf("PinTxns = %+v", cons.PinTxns)
	}
	if len(cons.PinAttrs) != 1 || cons.PinAttrs[0].Site != 0 {
		t.Errorf("PinAttrs = %+v", cons.PinAttrs)
	}
	for _, bad := range []string{"nope", "txn=A", "txn=A:x", "txn=A:-1", "attr=NoDot:0", "what=A:0"} {
		if _, err := loadConstraints("", bad); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
	if cons, err := loadConstraints("", ""); err != nil || cons != nil {
		t.Errorf("empty specs: %v, %v", cons, err)
	}
}
