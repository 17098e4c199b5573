package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vpart"
)

func captureOutput(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 1<<20)
		var out []byte
		for {
			n, err := r.Read(buf)
			out = append(out, buf[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(out)
	}()
	runErr := f()
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

func TestSimTPCCWithSASolve(t *testing.T) {
	out, err := captureOutput(t, func() error {
		return run(context.Background(), []string{"-tpcc", "-sites", "2", "-rounds", "2"})
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	for _, want := range []string{"partitioned with SA", "local read bytes", "objective (4)", "site 1 work", "site 2 work"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The per-round simulator column must equal the cost-model column for the
	// objective row.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "objective (4)") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[2] != fields[3] {
				t.Errorf("model and simulator disagree: %q", line)
			}
		}
	}
}

func TestSimWithStoredAssignment(t *testing.T) {
	dir := t.TempDir()
	instPath := filepath.Join(dir, "inst.json")
	layoutPath := filepath.Join(dir, "layout.json")

	inst := vpart.TPCC()
	if err := vpart.SaveInstance(instPath, inst); err != nil {
		t.Fatal(err)
	}
	sol, err := vpart.Solve(context.Background(), inst, vpart.Options{Sites: 3, Solver: "sa"})
	if err != nil {
		t.Fatal(err)
	}
	if err := vpart.SaveAssignment(layoutPath, sol.Partitioning.ToAssignment(sol.Model)); err != nil {
		t.Fatal(err)
	}

	out, err := captureOutput(t, func() error {
		return run(context.Background(), []string{"-instance", instPath, "-assignment", layoutPath})
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !strings.Contains(out, "transferred bytes") {
		t.Errorf("missing transfer row:\n%s", out)
	}
}

func TestSimErrors(t *testing.T) {
	cases := [][]string{
		{},                                     // no instance
		{"-tpcc", "-instance", "x.json"},       // mutually exclusive
		{"-instance", "/does/not/exist.json"},  // missing file
		{"-tpcc", "-assignment", "/nope.json"}, // missing assignment
		{"-tpcc", "-sites", "0"},               // invalid sites for solving
		{"-tpcc", "-rounds", "0"},              // no round to average over
		{"-tpcc", "-rounds", "-2"},             // negative round count
	}
	for i, args := range cases {
		if _, err := captureOutput(t, func() error { return run(context.Background(), args) }); err == nil {
			t.Errorf("case %d (%v): expected an error", i, args)
		}
	}
}
