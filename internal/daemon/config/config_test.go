package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeFile(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "vpartd.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDefaultIsValid(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Default() does not validate: %v", err)
	}
}

func TestLoadMergesOverDefaults(t *testing.T) {
	path := writeFile(t, `{
		"addr": ":9999",
		"log": {"level": "debug", "format": "json"},
		"trigger": {"debounce": "50ms", "max_pending_ops": 5, "max_staleness": 0.25, "max_interval": "2s"}
	}`)
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != ":9999" || cfg.Log.Level != "debug" || cfg.Log.Format != "json" {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	if cfg.Trigger.Debounce.Std() != 50*time.Millisecond || cfg.Trigger.MaxPendingOps != 5 ||
		cfg.Trigger.MaxStaleness != 0.25 || cfg.Trigger.MaxInterval.Std() != 2*time.Second {
		t.Fatalf("trigger not applied: %+v", cfg.Trigger)
	}
	// Untouched sections keep their defaults.
	if cfg.Defaults.Solver != Default().Defaults.Solver || cfg.Limits.MaxSessions != Default().Limits.MaxSessions {
		t.Fatalf("defaults lost: %+v", cfg)
	}
}

func TestLoadEmptyPath(t *testing.T) {
	cfg, err := Load("")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != Default().Addr {
		t.Fatalf("empty path is not Default(): %+v", cfg)
	}
}

func TestLoadRejects(t *testing.T) {
	for _, tc := range []struct{ name, doc, want string }{
		{"unknown field", `{"adddr": ":1"}`, "unknown field"},
		{"bad duration", `{"trigger": {"debounce": "fast"}}`, "bad duration"},
		{"bad level", `{"log": {"level": "loud"}}`, "unknown log level"},
		{"debounce exceeds interval", `{"trigger": {"debounce": "1m", "max_interval": "1s"}}`, "exceeds"},
		{"negative staleness", `{"trigger": {"max_staleness": -1}}`, "negative"},
		{"trailing data", `{"addr": ":1"} {"x": 1} junk`, "trailing data after JSON value"},
	} {
		_, err := Load(writeFile(t, tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestDurationRoundTrip(t *testing.T) {
	d := Duration(90 * time.Second)
	b, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Fatalf("marshal = %s", b)
	}
	var back Duration
	if err := back.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("round trip %v != %v", back, d)
	}
	if err := back.UnmarshalJSON([]byte("1500000000")); err != nil || back.Std() != 1500*time.Millisecond {
		t.Fatalf("numeric nanoseconds: %v %v", back, err)
	}
}
