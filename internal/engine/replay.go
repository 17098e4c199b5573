package engine

import (
	"context"
	"fmt"
	"sort"

	"vpart/internal/cluster"
	"vpart/internal/core"
	"vpart/internal/ingest"
)

// FaultTally counts replay faults by kind.
type FaultTally struct {
	// TxnSiteDown is the number of transaction executions lost because their
	// primary site was down.
	TxnSiteDown int
	// ReadUnavailable is the number of (execution, attribute) reads that no
	// live site could serve.
	ReadUnavailable int
	// WriteSkipped is the number of write fan-outs skipped because the
	// target replica's site was down.
	WriteSkipped int
}

// A Replayer executes traffic against a deployed layout and accumulates the
// simulator's byte accounting; Run is a Replayer replaying the compiled
// workload once per round. Beyond that:
//
//   - the layout need not be feasible: a transaction whose primary site lacks
//     a read attribute fetches it from the lowest-index live site holding it,
//     paying the donor's read bytes (RemoteReadBytes) plus a network transfer
//     of the missing widths — that is how a stale or degraded layout's
//     realized cost is priced;
//   - sites can be marked down (SetSiteDown): executions against a down site
//     surface as typed faults instead of bytes;
//   - Mark returns the Measured delta since the previous mark, so a caller
//     replaying epoch after epoch gets per-epoch increments without
//     re-running anything. SetLayout re-deploys without losing the running
//     totals.
//
// A Replayer is sequential and deterministic: equal layouts, down-sets and
// event sequences produce bit-identical measurements. It is not safe for
// concurrent use.
type Replayer struct {
	rows int

	m  *core.Model
	p  *core.Partitioning
	cl *cluster.Cluster

	sites    int
	penalty  float64
	down     []bool
	txnIndex map[string]int
	tblIndex map[string]int
	// hasFraction[t][s] reports whether site s holds a fraction of table t
	// under the current layout (precomputed: the write fan-out consults it
	// per event).
	hasFraction [][]bool

	// Totals folded in from clusters torn down by SetLayout re-deploys.
	accRead, accWrite, accXfer float64
	accMsgs                    int
	accSite                    []float64

	remoteRead float64
	txns       int
	tally      FaultTally

	last Measured // totals at the previous Mark
}

// NewReplayer returns a replayer materialising rowsPerTable synthetic rows
// per deployed fraction (values below 1 mean 64; the byte accounting does not
// depend on it). Call SetLayout before replaying.
func NewReplayer(rowsPerTable int) *Replayer {
	if rowsPerTable <= 0 {
		rowsPerTable = 64
	}
	return &Replayer{rows: rowsPerTable}
}

// SetLayout (re)deploys a layout: a fresh cluster is built with one fraction
// per (table, site) the partitioning assigns, and subsequent replays execute
// against it. The layout is only shape-checked — single-sitedness may be
// violated (that is the point: stale layouts are priced, not rejected) — but
// every transaction must have an in-range site and every attribute at least
// one replica. The running totals, marks, fault tally and down-set survive
// the re-deploy; the site count must not change across SetLayout calls.
func (r *Replayer) SetLayout(m *core.Model, p *core.Partitioning) error {
	if m == nil || p == nil {
		return fmt.Errorf("engine: replay: nil model or partitioning")
	}
	if p.Sites < 1 {
		return fmt.Errorf("engine: replay: non-positive site count %d", p.Sites)
	}
	if r.sites != 0 && p.Sites != r.sites {
		return fmt.Errorf("engine: replay: site count changed from %d to %d across SetLayout", r.sites, p.Sites)
	}
	if len(p.TxnSite) != m.NumTxns() || len(p.AttrSites) != m.NumAttrs() {
		return fmt.Errorf("engine: replay: layout is %d txns × %d attrs, model is %d × %d",
			len(p.TxnSite), len(p.AttrSites), m.NumTxns(), m.NumAttrs())
	}
	for t, s := range p.TxnSite {
		if s < 0 || s >= p.Sites {
			return fmt.Errorf("engine: replay: transaction %q on invalid site %d", m.TxnName(t), s)
		}
	}
	for a := range p.AttrSites {
		if len(p.AttrSites[a]) != p.Sites {
			return fmt.Errorf("engine: replay: attribute %s has %d site slots, want %d",
				m.Attr(a).Qualified, len(p.AttrSites[a]), p.Sites)
		}
		if p.Replicas(a) == 0 {
			return fmt.Errorf("engine: replay: attribute %s is stored nowhere", m.Attr(a).Qualified)
		}
	}

	cl, err := cluster.New(p.Sites, m.Options().Penalty)
	if err != nil {
		return err
	}
	if err := deploy(m, p, cl, r.rows); err != nil {
		return err
	}

	// The new cluster starts with zero counters: fold the old one's totals
	// into the accumulators so marks keep their running baseline.
	r.foldCluster()

	r.m, r.p, r.cl = m, p, cl
	r.sites = p.Sites
	r.penalty = m.Options().Penalty
	if r.down == nil {
		r.down = make([]bool, p.Sites)
	}
	if r.accSite == nil {
		r.accSite = make([]float64, p.Sites)
	}
	r.txnIndex = make(map[string]int, m.NumTxns())
	for t := 0; t < m.NumTxns(); t++ {
		r.txnIndex[m.TxnName(t)] = t
	}
	r.tblIndex = make(map[string]int, m.NumTables())
	r.hasFraction = make([][]bool, m.NumTables())
	for tbl := 0; tbl < m.NumTables(); tbl++ {
		r.tblIndex[m.TableName(tbl)] = tbl
		r.hasFraction[tbl] = make([]bool, p.Sites)
		for _, a := range m.TableAttrs(tbl) {
			for s := 0; s < p.Sites; s++ {
				if p.AttrSites[a][s] {
					r.hasFraction[tbl][s] = true
				}
			}
		}
	}
	return nil
}

// foldCluster moves the current cluster's counters into the accumulators.
func (r *Replayer) foldCluster() {
	if r.cl == nil {
		return
	}
	c := r.cl.Counters()
	r.accRead += c.BytesRead
	r.accWrite += c.BytesWritten
	r.accXfer += r.cl.Network().Bytes()
	r.accMsgs += r.cl.Network().Messages()
	for s, b := range r.cl.SiteBytes() {
		r.accSite[s] += b
	}
}

// SetSiteDown marks a site down (or back up). Down sites serve nothing:
// transactions homed there fault, reads fall through to the next live
// replica, write fan-outs to them are skipped and tallied.
func (r *Replayer) SetSiteDown(site int, down bool) error {
	if r.down == nil {
		return fmt.Errorf("engine: replay: SetSiteDown before SetLayout")
	}
	if site < 0 || site >= r.sites {
		return fmt.Errorf("engine: replay: site %d outside [0,%d)", site, r.sites)
	}
	r.down[site] = down
	return nil
}

// Replay executes a batch of raw events, each at weight 1, in order.
// Event transactions and attributes must exist in the current layout's model.
func (r *Replayer) Replay(events []ingest.Event) error {
	if r.cl == nil {
		return fmt.Errorf("engine: replay: Replay before SetLayout")
	}
	for i := range events {
		if err := r.replayEvent(&events[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReplayWorkload executes every compiled query of the current model once at
// its modelled frequency: one round of the workload. For a feasible layout
// with no down sites the resulting mark equals the analytic cost model byte
// for byte. Cancelling the context stops the round between transactions with
// an error wrapping ctx.Err().
func (r *Replayer) ReplayWorkload(ctx context.Context) error {
	if r.cl == nil {
		return fmt.Errorf("engine: replay: ReplayWorkload before SetLayout")
	}
	queries := r.m.Queries()
	byTxn := make([][]core.QueryInfo, r.m.NumTxns())
	for _, q := range queries {
		byTxn[q.Txn] = append(byTxn[q.Txn], q)
	}
	for t := 0; t < r.m.NumTxns(); t++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
		r.txns++
		site := r.p.TxnSite[t]
		if r.down[site] {
			r.tally.TxnSiteDown++
			continue
		}
		for _, q := range byTxn[t] {
			for _, acc := range q.Accesses {
				if q.Write {
					r.writeAccess(site, acc.Table, acc.Attrs, acc.Rows, q.Freq)
				} else {
					r.readAccess(site, acc.Table, acc.Attrs, acc.Rows, q.Freq)
				}
			}
		}
	}
	return nil
}

// replayEvent executes one event at weight 1.
func (r *Replayer) replayEvent(ev *ingest.Event) error {
	t, ok := r.txnIndex[ev.Txn]
	if !ok {
		return fmt.Errorf("engine: replay: unknown transaction %q", ev.Txn)
	}
	r.txns++
	site := r.p.TxnSite[t]
	if r.down[site] {
		r.tally.TxnSiteDown++
		return nil
	}
	for _, acc := range ev.Accesses {
		tbl, ok := r.tblIndex[acc.Table]
		if !ok {
			return fmt.Errorf("engine: replay: unknown table %q", acc.Table)
		}
		attrs := make([]int, 0, len(acc.Attributes))
		for _, an := range acc.Attributes {
			a, ok := r.m.AttrID(core.QualifiedAttr{Table: acc.Table, Attr: an})
			if !ok {
				return fmt.Errorf("engine: replay: unknown attribute %s.%s", acc.Table, an)
			}
			attrs = append(attrs, a)
		}
		if ev.Kind == core.Write {
			r.writeAccess(site, tbl, attrs, acc.Rows, 1)
		} else {
			r.readAccess(site, tbl, attrs, acc.Rows, 1)
		}
	}
	return nil
}

// readAccess reads the wanted attributes of one table access at the
// transaction's site. Attributes the site does not hold are fetched from the
// lowest-index live site holding them: the donor pays the read bytes
// (tracked as RemoteReadBytes) and the missing widths cross the network.
func (r *Replayer) readAccess(site, tbl int, attrs []int, rows, weight float64) {
	table := r.m.TableName(tbl)
	var localNames []string
	// missing groups the attributes the primary site lacks by donor site.
	var missing map[int][]int
	for _, a := range attrs {
		if r.p.AttrSites[a][site] {
			localNames = append(localNames, r.m.Attr(a).Qualified.Attr)
			continue
		}
		donor := -1
		for s := 0; s < r.sites; s++ {
			if r.p.AttrSites[a][s] && !r.down[s] {
				donor = s
				break
			}
		}
		if donor < 0 {
			r.tally.ReadUnavailable++
			continue
		}
		if missing == nil {
			missing = make(map[int][]int)
		}
		missing[donor] = append(missing[donor], a)
	}
	if len(localNames) > 0 {
		r.cl.Site(site).ReadRows(table, localNames, rows, weight)
	}
	if missing == nil {
		return
	}
	donors := make([]int, 0, len(missing))
	for s := range missing {
		donors = append(donors, s)
	}
	sort.Ints(donors)
	for _, s := range donors {
		names := make([]string, len(missing[s]))
		width := 0
		for i, a := range missing[s] {
			names[i] = r.m.Attr(a).Qualified.Attr
			width += r.m.Attr(a).Width
		}
		r.remoteRead += r.cl.Site(s).ReadRows(table, names, rows, weight)
		r.cl.Network().Transfer(s, site, float64(width)*rows*weight)
	}
}

// writeAccess fans one write access out to every live site holding a
// fraction of the table ("access all attributes") and ships the written
// widths to remote replicas; fan-outs to down sites are skipped and tallied.
func (r *Replayer) writeAccess(site, tbl int, attrs []int, rows, weight float64) {
	table := r.m.TableName(tbl)
	for s := 0; s < r.sites; s++ {
		if !r.hasFraction[tbl][s] {
			continue
		}
		if r.down[s] {
			r.tally.WriteSkipped++
			continue
		}
		r.cl.Site(s).WriteRows(table, rows, weight)
		if s == site {
			continue
		}
		bytes := 0.0
		for _, a := range attrs {
			if r.p.AttrSites[a][s] {
				bytes += float64(r.m.Attr(a).Width) * rows * weight
			}
		}
		if bytes > 0 {
			r.cl.Network().Transfer(site, s, bytes)
		}
	}
}

// total computes the cumulative measurements across every layout deployed so
// far.
func (r *Replayer) total() Measured {
	t := Measured{
		ReadBytes:       r.accRead,
		WriteBytes:      r.accWrite,
		TransferBytes:   r.accXfer,
		NetworkMessages: r.accMsgs,
		SiteBytes:       append([]float64(nil), r.accSite...),
		RemoteReadBytes: r.remoteRead,
		Faults:          r.tally.TxnSiteDown + r.tally.ReadUnavailable,
		DegradedWrites:  r.tally.WriteSkipped,
		Transactions:    r.txns,
	}
	if r.cl != nil {
		c := r.cl.Counters()
		t.ReadBytes += c.BytesRead
		t.WriteBytes += c.BytesWritten
		t.TransferBytes += r.cl.Network().Bytes()
		t.NetworkMessages += r.cl.Network().Messages()
		for s, b := range r.cl.SiteBytes() {
			t.SiteBytes[s] += b
		}
	}
	t.PenalisedCost = t.ReadBytes + t.WriteBytes + r.penalty*t.TransferBytes
	return t
}

// Total returns the cumulative measurements since the replayer was created
// (marks do not reset it).
func (r *Replayer) Total() Measured {
	if r.down == nil {
		return Measured{}
	}
	return r.total()
}

// Mark returns the Measured delta since the previous Mark (or since creation
// for the first call): the per-epoch stats tap. PenalisedCost is recomputed
// from the delta's own components.
func (r *Replayer) Mark() Measured {
	cur := r.total()
	d := Measured{
		ReadBytes:       cur.ReadBytes - r.last.ReadBytes,
		WriteBytes:      cur.WriteBytes - r.last.WriteBytes,
		TransferBytes:   cur.TransferBytes - r.last.TransferBytes,
		NetworkMessages: cur.NetworkMessages - r.last.NetworkMessages,
		RemoteReadBytes: cur.RemoteReadBytes - r.last.RemoteReadBytes,
		Faults:          cur.Faults - r.last.Faults,
		DegradedWrites:  cur.DegradedWrites - r.last.DegradedWrites,
		Transactions:    cur.Transactions - r.last.Transactions,
		SiteBytes:       make([]float64, len(cur.SiteBytes)),
	}
	for s := range cur.SiteBytes {
		d.SiteBytes[s] = cur.SiteBytes[s]
		if s < len(r.last.SiteBytes) {
			d.SiteBytes[s] -= r.last.SiteBytes[s]
		}
	}
	d.PenalisedCost = d.ReadBytes + d.WriteBytes + r.penalty*d.TransferBytes
	r.last = cur
	return d
}

// Faults returns the cumulative fault tally by kind.
func (r *Replayer) Faults() FaultTally { return r.tally }
