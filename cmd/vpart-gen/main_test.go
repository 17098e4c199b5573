package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vpart"
	"vpart/internal/daemon/server"
)

func TestParseWidths(t *testing.T) {
	ws, err := parseWidths("2, 4,8")
	if err != nil || len(ws) != 3 || ws[0] != 2 || ws[2] != 8 {
		t.Fatalf("parseWidths = %v, %v", ws, err)
	}
	if _, err := parseWidths("a,b"); err == nil {
		t.Error("invalid widths accepted")
	}
	if _, err := parseWidths(""); err == nil {
		t.Error("empty widths accepted")
	}
}

func TestGenerateNamedClassToFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "inst.json")
	if err := run([]string{"-class", "rndAt8x15", "-seed", "7", "-out", out}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	inst, err := vpart.LoadInstance(out)
	if err != nil {
		t.Fatalf("generated file unreadable: %v", err)
	}
	if inst.Name != "rndAt8x15" {
		t.Errorf("instance name %q", inst.Name)
	}
	if inst.Stats().Transactions != 15 {
		t.Errorf("|T| = %d, want 15", inst.Stats().Transactions)
	}
}

func TestGenerateCustomParameters(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "custom.json")
	err := run([]string{
		"-transactions", "12", "-tables", "6", "-max-attrs", "10",
		"-widths", "2,16", "-updates", "50", "-seed", "3", "-out", out,
		"-name", "my-workload",
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	inst, err := vpart.LoadInstance(out)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Name != "my-workload" {
		t.Errorf("name = %q", inst.Name)
	}
	st := inst.Stats()
	if st.Transactions != 12 || st.Tables != 6 {
		t.Errorf("dimensions wrong: %+v", st)
	}
	for _, tbl := range inst.Schema.Tables {
		for _, a := range tbl.Attributes {
			if a.Width != 2 && a.Width != 16 {
				t.Errorf("width %d outside the allowed set", a.Width)
			}
		}
	}
}

// TestGenerateEventsDecode checks that -events writes the wire form vpartd
// decodes: every line parses with server.ParseEventsRequest into a valid
// event, for both stream families.
func TestGenerateEventsDecode(t *testing.T) {
	for _, family := range []string{"ycsb", "social"} {
		out := filepath.Join(t.TempDir(), "events.ndjson")
		if err := run([]string{"-events", "-family", family, "-n", "1000", "-shapes", "500", "-out", out}); err != nil {
			t.Fatalf("%s: run failed: %v", family, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		events, err := server.ParseEventsRequest(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", family, err)
		}
		if len(events) != 1000 {
			t.Fatalf("%s: decoded %d events, want 1000", family, len(events))
		}
		for i := range events {
			if err := events[i].Validate(); err != nil {
				t.Fatalf("%s: event %d: %v", family, i, err)
			}
		}
	}
}

func TestGenerateToStdout(t *testing.T) {
	old := os.Stdout
	r, w, _ := os.Pipe()
	os.Stdout = w
	err := run([]string{"-class", "rndBt4x15"})
	w.Close()
	os.Stdout = old
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	if !strings.Contains(string(buf[:n]), `"transactions"`) {
		t.Error("stdout output does not look like an instance JSON")
	}
}

func TestListClasses(t *testing.T) {
	old := os.Stdout
	r, w, _ := os.Pipe()
	os.Stdout = w
	err := run([]string{"-list"})
	w.Close()
	os.Stdout = old
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	out := string(buf[:n])
	if !strings.Contains(out, "rndAt8x15") || !strings.Contains(out, "rndBt16x15u50") {
		t.Errorf("class list incomplete:\n%s", out)
	}
}

func TestGenerateErrors(t *testing.T) {
	if err := run([]string{"-class", "nope"}); err == nil {
		t.Error("unknown class accepted")
	}
	if err := run([]string{"-widths", "zero"}); err == nil {
		t.Error("bad widths accepted")
	}
	if err := run([]string{"-transactions", "0"}); err == nil {
		t.Error("invalid parameters accepted")
	}
}
