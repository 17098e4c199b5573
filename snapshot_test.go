package vpart_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"vpart"
)

// snapshotSession builds a small session, drives it through a resolve and a
// delta so every snapshot field is populated.
func snapshotSession(t *testing.T) *vpart.Session {
	t.Helper()
	inst, err := vpart.RandomInstance(vpart.ClassA(4, 8, 20), 3)
	if err != nil {
		t.Fatal(err)
	}
	cons := &vpart.Constraints{PinTxns: []vpart.PinTxn{{Txn: inst.Workload.Transactions[0].Name, Site: 0}}}
	sess, err := vpart.NewSession(inst, vpart.Options{
		Sites: 2, Solver: "sa", Seed: 11, Constraints: cons,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	tx := sess.Instance().Workload.Transactions[0]
	if err := sess.Apply(vpart.WorkloadDelta{Ops: []vpart.DeltaOp{
		vpart.ScaleFreq{Txn: tx.Name, Query: tx.Queries[0].Name, Factor: 5},
	}}); err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestSessionSnapshotRoundTrip(t *testing.T) {
	sess := snapshotSession(t)
	snap := sess.Snapshot()
	if snap.Incumbent == nil || snap.Resolves != 1 || snap.PendingOps != 1 || len(snap.History) != 1 {
		t.Fatalf("unexpected snapshot shape: incumbent=%v resolves=%d pending=%d history=%d",
			snap.Incumbent != nil, snap.Resolves, snap.PendingOps, len(snap.History))
	}
	if snap.Constraints.Empty() {
		t.Fatal("snapshot lost the constraints")
	}

	// JSON round trip must be a fixed point.
	var first bytes.Buffer
	if err := vpart.EncodeSessionSnapshot(&first, snap); err != nil {
		t.Fatal(err)
	}
	decoded, err := vpart.DecodeSessionSnapshot(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := vpart.EncodeSessionSnapshot(&second, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("snapshot JSON round trip is not a fixed point:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
	}

	// A restored session serves the same incumbent over the same instance and
	// keeps resolving from it.
	restored, err := vpart.NewSessionFromSnapshot(decoded, vpart.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Snapshot(); !reflect.DeepEqual(got.Instance, snap.Instance) {
		t.Fatal("restored session's instance differs from the snapshot's")
	}
	inc := restored.Incumbent()
	if inc == nil {
		t.Fatal("restored session has no incumbent")
	}
	if len(restored.History()) != 1 {
		t.Fatalf("restored history has %d entries, want 1", len(restored.History()))
	}
	sol, stats, err := restored.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Warm {
		t.Fatal("resolve after restore did not run warm")
	}
	if sol.Partitioning == nil {
		t.Fatal("resolve after restore found nothing")
	}
	if len(restored.History()) != 2 || restored.Snapshot().Resolves != 2 {
		t.Fatalf("history/resolve counters not continued: history=%d resolves=%d",
			len(restored.History()), restored.Snapshot().Resolves)
	}
}

// TestDecodeSessionSnapshotRejectsTrailingData: a snapshot document
// followed by more than whitespace is rejected.
func TestDecodeSessionSnapshotRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := vpart.EncodeSessionSnapshot(&buf, snapshotSession(t).Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := vpart.DecodeSessionSnapshot(bytes.NewReader(append(buf.Bytes(), " \n"...))); err != nil {
		t.Fatalf("snapshot with trailing whitespace rejected: %v", err)
	}
	_, err := vpart.DecodeSessionSnapshot(bytes.NewReader(append(buf.Bytes(), ` {"x": 1} junk`...)))
	if err == nil || !strings.Contains(err.Error(), "trailing data after JSON value") {
		t.Fatalf("snapshot with trailing data: error %v", err)
	}
}

func TestSessionSnapshotIndependence(t *testing.T) {
	sess := snapshotSession(t)
	snap := sess.Snapshot()
	before := snap.Instance.Workload.Transactions[0].Queries[0].Frequency
	tx := sess.Instance().Workload.Transactions[0]
	if err := sess.Apply(vpart.WorkloadDelta{Ops: []vpart.DeltaOp{
		vpart.ScaleFreq{Txn: tx.Name, Query: tx.Queries[0].Name, Factor: 2},
	}}); err != nil {
		t.Fatal(err)
	}
	if got := snap.Instance.Workload.Transactions[0].Queries[0].Frequency; got != before {
		t.Fatalf("session Apply mutated the snapshot: frequency %g -> %g", before, got)
	}
}

func TestSessionStaleness(t *testing.T) {
	inst := vpart.TPCC()
	sess, err := vpart.NewSession(inst, vpart.Options{Sites: 3, Solver: "sa", Seed: 7, TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Staleness(); got != 0 {
		t.Fatalf("staleness before any resolve = %g, want 0", got)
	}
	if _, _, err := sess.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sess.Staleness(); got != 0 {
		t.Fatalf("staleness with no pending drift = %g, want 0", got)
	}
	// A heavy frequency shift must register as non-zero staleness.
	tx := sess.Instance().Workload.Transactions[0]
	ops := []vpart.DeltaOp{}
	for _, q := range tx.Queries {
		ops = append(ops, vpart.ScaleFreq{Txn: tx.Name, Query: q.Name, Factor: 50})
	}
	if err := sess.Apply(vpart.WorkloadDelta{Ops: ops}); err != nil {
		t.Fatal(err)
	}
	st := sess.Staleness()
	if st == 0 || math.IsNaN(st) {
		t.Fatalf("staleness after a 50x frequency shift = %g, want non-zero", st)
	}
}
