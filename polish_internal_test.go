package vpart

import (
	"context"
	"testing"
	"time"

	"vpart/internal/core"
)

// TestPolishChildStopsAtTheTimeBudget: a portfolio child's layout is
// polished unless the child timed out, its time budget's deadline has
// passed, or it is a proven gap-free optimum; those come back exactly as the
// child left them. The layout replicates every attribute to every site, so
// a polish always finds drops that pay.
func TestPolishChildStopsAtTheTimeBudget(t *testing.T) {
	m, err := core.NewModel(TPCC(), DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name     string
		res      Result
		deadline time.Time
		polished bool
	}{
		{"no-limit", Result{}, time.Time{}, true},
		{"before-deadline", Result{}, time.Now().Add(time.Hour), true},
		{"timed-out", Result{TimedOut: true}, time.Time{}, false},
		{"deadline-passed", Result{}, time.Now().Add(-time.Second), false},
		{"gap-free-optimum", Result{Optimal: true}, time.Time{}, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			p := core.FullReplication(m, 3)
			res := row.res
			res.Partitioning, res.Cost = p, m.Evaluate(p)
			if err := polishChild(context.Background(), m, &res, false, row.deadline); err != nil {
				t.Fatal(err)
			}
			if got := res.Partitioning != p; got != row.polished {
				t.Fatalf("layout polished: %v, want %v", got, row.polished)
			}
			if row.polished && res.Cost.Balanced >= m.Evaluate(p).Balanced {
				t.Errorf("polished cost %v does not undercut the child's %v", res.Cost.Balanced, m.Evaluate(p).Balanced)
			}
		})
	}
}
