package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestEvaluatorMoveStartsFromCurrentState checks the start value a move
// keeps from the move before it: through commits, no-op moves, Undo,
// Snapshot and Restore, every Apply method returns exactly balancedRaw
// after the move minus balancedRaw before it, both computed afresh.
func TestEvaluatorMoveStartsFromCurrentState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		mode := []WriteAccounting{WriteAll, WriteRelevant, WriteNone}[trial%3]
		m, err := NewModel(randomInstance(rng), ModelOptions{
			Penalty: 8, Lambda: 0.1, WriteAccounting: mode, LatencyPenalty: 0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
		const sites = 3
		e, err := NewEvaluator(m, randomPartitioning(rng, m, sites))
		if err != nil {
			t.Fatal(err)
		}
		snap := e.Snapshot()
		for step := 0; step < 300; step++ {
			switch rng.Intn(8) {
			case 0:
				e.Undo()
			case 1:
				e.Commit()
			case 2:
				e.Restore(snap)
			case 3:
				e.SnapshotTo(snap)
			default:
				before := e.balancedRaw()
				var got float64
				switch s := rng.Intn(sites); rng.Intn(3) {
				case 0:
					got = e.ApplyMoveTxn(rng.Intn(m.NumTxns()), s)
				case 1:
					got = e.ApplyAddReplica(rng.Intn(m.NumAttrs()), s)
				default:
					got = e.ApplyDropReplica(rng.Intn(m.NumAttrs()), s)
				}
				if want := e.balancedRaw() - before; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d step %d: move returned %v, want %v", trial, step, got, want)
				}
			}
		}
	}
}
