package core

import (
	"fmt"
	"math"
	"strings"
)

// Cost is the full cost breakdown of a partitioning under the model.
//
// The paper's reported cost ("the objective of (4)") is Objective; the value
// the solvers minimise (objective (6)) is Balanced.
type Cost struct {
	// ReadAccess is A_R: bytes read locally by storage-layer access methods.
	ReadAccess float64
	// WriteAccess is A_W: bytes written locally, under the model's write
	// accounting mode.
	WriteAccess float64
	// Transfer is B: bytes transferred between sites by write queries.
	Transfer float64
	// SiteWork[s] is the work of site s as defined by equation (5).
	SiteWork []float64
	// MaxWork is m = max_s SiteWork[s].
	MaxWork float64
	// LatencyUnits is Σ_q f_q·ψ_q of Appendix A (number of frequency-weighted
	// write queries that access at least one remote replica). Zero when the
	// latency extension is disabled.
	LatencyUnits float64
	// Latency is p_l·LatencyUnits.
	Latency float64
	// Objective is the paper's objective (4): A + p·B (plus the latency term
	// when enabled). This is the "actual cost" reported in all tables.
	Objective float64
	// Balanced is the load-balanced objective (6): λ·Objective(4) + (1-λ)·m.
	Balanced float64
}

// String renders a compact human readable breakdown.
func (c Cost) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "objective(4)=%.6g balanced(6)=%.6g", c.Objective, c.Balanced)
	fmt.Fprintf(&b, " [AR=%.6g AW=%.6g B=%.6g m=%.6g", c.ReadAccess, c.WriteAccess, c.Transfer, c.MaxWork)
	if c.Latency > 0 {
		fmt.Fprintf(&b, " latency=%.6g", c.Latency)
	}
	b.WriteString("]")
	return b.String()
}

// Evaluate computes the cost of a partitioning. The partitioning is not
// validated; call Partitioning.Validate first if feasibility is not already
// guaranteed (costs of infeasible partitionings are still well defined but
// meaningless for the paper's model).
func (m *Model) Evaluate(p *Partitioning) Cost {
	var c Cost
	c.SiteWork = make([]float64, p.Sites)

	// A_R and the read part of the per-site work: attributes co-located with
	// the transactions that read them.
	for t := 0; t < m.NumTxns(); t++ {
		site := p.TxnSite[t]
		for _, tc := range m.txnTerms[t] {
			if p.AttrSites[tc.Attr][site] {
				c.ReadAccess += tc.C3
				c.SiteWork[site] += tc.C3
			}
		}
	}

	// A_W under the selected accounting mode, plus the write part of the
	// per-site work (equation (5) always uses the "all attributes" c4 form,
	// matching the paper).
	for a := 0; a < m.NumAttrs(); a++ {
		for s := 0; s < p.Sites; s++ {
			if p.AttrSites[a][s] {
				c.SiteWork[s] += m.C4(a)
			}
		}
	}
	switch m.opts.WriteAccounting {
	case WriteAll:
		for a := 0; a < m.NumAttrs(); a++ {
			c.WriteAccess += m.writeLocal[a] * float64(p.Replicas(a))
		}
	case WriteNone:
		c.WriteAccess = 0
	case WriteRelevant:
		c.WriteAccess = m.relevantWriteAccess(p)
	}

	// B: write queries transfer the attributes they write to every replica
	// site except the site of their own transaction.
	gross := 0.0
	for a := 0; a < m.NumAttrs(); a++ {
		if m.transferTotal[a] == 0 {
			continue
		}
		gross += m.transferTotal[a] * float64(p.Replicas(a))
	}
	c.Transfer = gross
	for t := 0; t < m.NumTxns(); t++ {
		site := p.TxnSite[t]
		for _, tc := range m.txnTerms[t] {
			if tc.Xfer != 0 && p.AttrSites[tc.Attr][site] {
				c.Transfer -= tc.Xfer
			}
		}
	}
	c.Transfer = clampTransfer(c.Transfer, gross)

	// Appendix A latency extension.
	if m.opts.LatencyPenalty > 0 {
		c.LatencyUnits = m.latencyUnits(p)
		c.Latency = m.opts.LatencyPenalty * c.LatencyUnits
	}

	for _, w := range c.SiteWork {
		if w > c.MaxWork {
			c.MaxWork = w
		}
	}
	c.Objective = c.ReadAccess + c.WriteAccess + m.opts.Penalty*c.Transfer + c.Latency
	c.Balanced = m.opts.Lambda*c.Objective + (1-m.opts.Lambda)*c.MaxWork
	return c
}

// transferNoise bounds the relative floating point cancellation allowed in
// the transfer term B: the gross Σ_a transferTotal(a)·replicas(a) and the
// per-transaction own-site savings cancel almost exactly for local layouts.
const transferNoise = 1e-9

// clampTransfer zeroes cancellation noise in the computed transfer term. A
// negative value beyond the noise tolerance cannot result from rounding — the
// own-site savings can never exceed the gross transfer — so it is surfaced as
// a violated model invariant instead of silently producing a negative cost.
func clampTransfer(transfer, gross float64) float64 {
	if transfer >= 0 {
		return transfer
	}
	if transfer >= -transferNoise*(1+gross) {
		return 0
	}
	panic(fmt.Sprintf("core: transfer term %g is negative beyond cancellation noise (gross transfer %g): model invariant violated", transfer, gross))
}

// relevantWriteAccess implements the "access relevant attributes" accounting:
// a table fraction at a site is written only if the site also stores at least
// one attribute the query actually writes.
func (m *Model) relevantWriteAccess(p *Partitioning) float64 {
	total := 0.0
	for _, q := range m.queries {
		if !q.write {
			continue
		}
		for _, acc := range q.accesses {
			for s := 0; s < p.Sites; s++ {
				// Does site s hold any attribute written by q in this table?
				touched := false
				for _, a := range acc.attrs {
					if p.AttrSites[a][s] {
						touched = true
						break
					}
				}
				if !touched {
					continue
				}
				// Then the whole fraction of the table stored at s is written.
				for _, a := range m.tableAttrs[acc.table] {
					if p.AttrSites[a][s] {
						total += float64(m.attrs[a].Width) * q.freq * acc.rows
					}
				}
			}
		}
	}
	return total
}

// latencyUnits computes Σ_q f_q·ψ_q of Appendix A: a write query pays one
// latency unit (times its frequency) if it has to reach at least one replica
// on a site other than its transaction's primary site.
func (m *Model) latencyUnits(p *Partitioning) float64 {
	units := 0.0
	for _, q := range m.queries {
		if !q.write {
			continue
		}
		own := p.TxnSite[q.txn]
		remote := false
	scan:
		for _, acc := range q.accesses {
			for _, a := range acc.attrs {
				for s := 0; s < p.Sites; s++ {
					if s != own && p.AttrSites[a][s] {
						remote = true
						break scan
					}
				}
			}
		}
		if remote {
			units += q.freq
		}
	}
	return units
}

// CostRatio returns 100·a/b, the percentage used by the paper's "Ratio"
// columns; it returns NaN when b is zero.
func CostRatio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return 100 * a / b
}
