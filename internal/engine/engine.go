// Package engine executes a workload against a vertically partitioned,
// H-store-like cluster simulator and measures the bytes read, written and
// transferred. It is the substrate that validates the paper's analytical cost
// model: for any feasible partitioning, the measured quantities equal the
// model's A_R, A_W and B exactly (under the paper's "access all attributes"
// write accounting).
package engine

import (
	"context"
	"fmt"

	"vpart/internal/cluster"
	"vpart/internal/core"
	"vpart/internal/storage"
)

// Options configure a simulation run.
type Options struct {
	// RowsPerTable is the number of synthetic rows materialised per table
	// fraction (values below 1 mean 64). Accounting does not depend on it; it
	// only controls how much real data the storage layer touches.
	RowsPerTable int
	// Rounds is how many times the whole workload is executed (0 means 1;
	// negative is an error).
	Rounds int
}

// Measured is the outcome of a simulation run.
type Measured struct {
	// ReadBytes is the total number of bytes read by storage access methods
	// (the measured counterpart of the model's A_R).
	ReadBytes float64
	// WriteBytes is the total number of bytes written (the model's A_W under
	// "access all attributes" accounting).
	WriteBytes float64
	// TransferBytes is the total number of bytes moved between sites (the
	// model's B).
	TransferBytes float64
	// SiteBytes is the per-site sum of read and written bytes (the model's
	// per-site work, equation (5)).
	SiteBytes []float64
	// PenalisedCost is ReadBytes + WriteBytes + p·TransferBytes, the measured
	// counterpart of objective (4).
	PenalisedCost float64
	// Transactions is the number of transaction executions.
	Transactions int
	// NetworkMessages is the number of inter-site transfer operations.
	NetworkMessages int
	// RemoteReadBytes is the subset of ReadBytes served by donor sites on
	// behalf of transactions whose primary site lacked a read attribute.
	// Zero on a feasible layout.
	RemoteReadBytes float64
	// Faults counts transaction executions that could not complete: the
	// primary site was down, or a read attribute had no live replica. Zero
	// while no site is down.
	Faults int
	// DegradedWrites counts write fan-outs skipped because the target
	// replica's site was down. Zero while no site is down.
	DegradedWrites int
}

// Run deploys a feasible partitioning on a fresh cluster, replays the whole
// workload once per round on a Replayer and returns the totals together with
// the cluster (whose storage state can be inspected further). Cancelling the
// context stops the run between transactions with an error wrapping
// ctx.Err().
func Run(ctx context.Context, m *core.Model, p *core.Partitioning, opts Options) (*Measured, *cluster.Cluster, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Rounds < 0 {
		return nil, nil, fmt.Errorf("engine: negative round count %d", opts.Rounds)
	}
	if err := p.Validate(m); err != nil {
		return nil, nil, fmt.Errorf("engine: infeasible partitioning: %w", err)
	}
	r := NewReplayer(opts.RowsPerTable)
	if err := r.SetLayout(m, p); err != nil {
		return nil, nil, err
	}
	for round := 0; round < max(opts.Rounds, 1); round++ {
		if err := r.ReplayWorkload(ctx); err != nil {
			return nil, nil, err
		}
	}
	meas := r.Total()
	return &meas, r.cl, nil
}

// deploy creates, on every site, one fraction per table holding exactly the
// attributes the partitioning assigns there, and populates it with synthetic
// rows.
func deploy(m *core.Model, p *core.Partitioning, cl *cluster.Cluster, rows int) error {
	for s := 0; s < p.Sites; s++ {
		store := cl.Site(s)
		for tbl := 0; tbl < m.NumTables(); tbl++ {
			var cols []storage.Column
			for _, a := range m.TableAttrs(tbl) {
				if p.AttrSites[a][s] {
					info := m.Attr(a)
					cols = append(cols, storage.Column{Name: info.Qualified.Attr, Width: info.Width})
				}
			}
			if len(cols) == 0 {
				continue
			}
			if _, err := store.CreateFraction(m.TableName(tbl), cols); err != nil {
				return err
			}
			store.Populate(m.TableName(tbl), rows)
		}
	}
	return nil
}
