// Package config loads and validates the vpartd daemon configuration: a JSON
// file selecting the listen address, logging, solver defaults for new
// sessions and the background re-solve trigger policy. Every field has a
// production-safe default, so an empty file (or no file at all) is a valid
// configuration; the daemon reloads the file on SIGHUP and applies the
// fields that can change at runtime (log level, trigger policy, limits).
package config

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"vpart/internal/jsonscan"
)

// Duration is a time.Duration that (un)marshals as a Go duration string
// ("250ms", "1m30s") so config files stay human-readable.
type Duration time.Duration

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string or a bare number of nanoseconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("config: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err == nil {
		*d = Duration(n)
		return nil
	}
	return fmt.Errorf("config: bad duration %s", data)
}

// Std returns the standard-library duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Log configures structured logging.
type Log struct {
	// Level is "debug", "info", "warn" or "error".
	Level string `json:"level"`
	// Format is "text" or "json".
	Format string `json:"format"`
}

// Defaults are applied to session-create requests that leave the matching
// option empty.
type Defaults struct {
	// Solver is the solver for sessions that do not name one.
	Solver string `json:"solver"`
	// TimeLimit caps each background resolve.
	TimeLimit Duration `json:"time_limit"`
	// PortfolioSeeds is the number of SA children of a full portfolio race:
	// a session's cold first resolve, and any resolve whose incumbent did
	// not come out of a warm start. Once a warm child has won, resolves run
	// only the warm children.
	PortfolioSeeds int `json:"portfolio_seeds"`
}

// Trigger is the background re-solve policy of every session worker. A
// resolve fires as soon as any of the thresholds trips; until then deltas
// accumulate (they are applied to the session's cost model immediately — only
// the solve itself is deferred).
type Trigger struct {
	// Debounce is the quiet period after the last delta before a resolve
	// fires; 0 resolves immediately on every delta.
	Debounce Duration `json:"debounce"`
	// MaxPendingOps fires a resolve once this many delta ops are pending,
	// debounce or not; 0 disables the threshold.
	MaxPendingOps int `json:"max_pending_ops"`
	// MaxStaleness fires a resolve once the incumbent's re-priced cost
	// exceeds its original cost by this fraction (0.1 = 10 % costlier);
	// 0 disables the threshold.
	MaxStaleness float64 `json:"max_staleness"`
	// MaxInterval caps how long pending deltas may wait for a resolve, no
	// matter how sparse they arrive.
	MaxInterval Duration `json:"max_interval"`
}

// Ingest sizes the per-session streaming ingestor behind
// POST /v1/sessions/{name}/events. A session only pays for an ingestor once
// its first event batch arrives. These are startup settings (not hot-swapped
// on SIGHUP): a live ingestor's sketches cannot be resized.
type Ingest struct {
	// EpochEvents is the epoch length in events: the ingestor folds the
	// stream into one workload delta per EpochEvents observed executions.
	EpochEvents int `json:"epoch_events"`
	// TopK is the number of heavy-hitter query shapes kept as real queries.
	TopK int `json:"top_k"`
	// SketchWidth is the count-min sketch width (a power of two).
	SketchWidth int `json:"sketch_width"`
	// SketchDepth is the count-min sketch depth (rows).
	SketchDepth int `json:"sketch_depth"`
	// Shards is the number of ingest shards (1 = fold inline).
	Shards int `json:"shards"`
	// ScaleTol is the relative frequency drift below which a tracked query's
	// frequency is left alone at an epoch boundary (0.2 = 20 %).
	ScaleTol float64 `json:"scale_tol"`
}

// Limits bound the daemon's resource use.
type Limits struct {
	// MaxSessions caps the number of live sessions.
	MaxSessions int `json:"max_sessions"`
	// MaxBodyBytes caps the accepted HTTP request body size.
	MaxBodyBytes int64 `json:"max_body_bytes"`
}

// Config is the full daemon configuration.
type Config struct {
	// Addr is the HTTP listen address.
	Addr     string   `json:"addr"`
	Log      Log      `json:"log"`
	Defaults Defaults `json:"defaults"`
	Trigger  Trigger  `json:"trigger"`
	Ingest   Ingest   `json:"ingest"`
	Limits   Limits   `json:"limits"`
}

// Default returns the built-in configuration: listen on 127.0.0.1:7421,
// info-level text logs, portfolio solver with a 30 s budget, and a trigger
// policy tuned for interactive drift (250 ms debounce, 64-op / 10 % staleness
// thresholds, 30 s max interval).
func Default() Config {
	return Config{
		Addr: "127.0.0.1:7421",
		Log:  Log{Level: "info", Format: "text"},
		Defaults: Defaults{
			Solver:         "portfolio",
			TimeLimit:      Duration(30 * time.Second),
			PortfolioSeeds: 4,
		},
		Trigger: Trigger{
			Debounce:      Duration(250 * time.Millisecond),
			MaxPendingOps: 64,
			MaxStaleness:  0.10,
			MaxInterval:   Duration(30 * time.Second),
		},
		Ingest: Ingest{
			EpochEvents: 1 << 20,
			TopK:        512,
			SketchWidth: 1 << 15,
			SketchDepth: 4,
			Shards:      1,
			ScaleTol:    0.2,
		},
		Limits: Limits{
			MaxSessions:  64,
			MaxBodyBytes: 32 << 20,
		},
	}
}

// Load reads a JSON config file and merges it over Default(). An empty path
// returns Default(). Unknown fields, and anything but whitespace after the
// document, are rejected so typos fail loudly.
func Load(path string) (Config, error) {
	cfg := Default()
	if path == "" {
		return cfg, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return cfg, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("config: %s: %w", path, err)
	}
	if err := jsonscan.Finish(dec); err != nil {
		return cfg, fmt.Errorf("config: %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("config: %s: %w", path, err)
	}
	return cfg, nil
}

// Validate checks the configuration for consistency.
func (c *Config) Validate() error {
	if c.Addr == "" {
		return fmt.Errorf("empty addr")
	}
	switch c.Log.Level {
	case "", "debug", "info", "warn", "warning", "error":
	default:
		return fmt.Errorf("unknown log level %q", c.Log.Level)
	}
	switch c.Log.Format {
	case "", "text", "json":
	default:
		return fmt.Errorf("unknown log format %q", c.Log.Format)
	}
	if c.Defaults.TimeLimit < 0 {
		return fmt.Errorf("negative defaults.time_limit")
	}
	if c.Defaults.PortfolioSeeds < 0 {
		return fmt.Errorf("negative defaults.portfolio_seeds")
	}
	if c.Trigger.Debounce < 0 || c.Trigger.MaxInterval < 0 {
		return fmt.Errorf("negative trigger durations")
	}
	if c.Trigger.MaxPendingOps < 0 {
		return fmt.Errorf("negative trigger.max_pending_ops")
	}
	if c.Trigger.MaxStaleness < 0 {
		return fmt.Errorf("negative trigger.max_staleness")
	}
	if c.Trigger.MaxInterval > 0 && c.Trigger.Debounce > c.Trigger.MaxInterval {
		return fmt.Errorf("trigger.debounce %s exceeds trigger.max_interval %s",
			c.Trigger.Debounce.Std(), c.Trigger.MaxInterval.Std())
	}
	if c.Ingest.EpochEvents < 1 || c.Ingest.TopK < 1 || c.Ingest.Shards < 1 {
		return fmt.Errorf("ingest: epoch_events, top_k and shards must be ≥ 1")
	}
	if w := c.Ingest.SketchWidth; w < 2 || w&(w-1) != 0 {
		return fmt.Errorf("ingest: sketch_width %d is not a power of two ≥ 2", w)
	}
	if d := c.Ingest.SketchDepth; d < 1 || d > 8 {
		return fmt.Errorf("ingest: sketch_depth %d outside [1, 8]", d)
	}
	if c.Ingest.ScaleTol < 0 {
		return fmt.Errorf("negative ingest.scale_tol")
	}
	if c.Limits.MaxSessions < 0 {
		return fmt.Errorf("negative limits.max_sessions")
	}
	if c.Limits.MaxBodyBytes < 0 {
		return fmt.Errorf("negative limits.max_body_bytes")
	}
	return nil
}
