package core

import (
	"fmt"
	"slices"
	"sort"
)

// WriteAccounting selects how local data access of write queries (the
// paper's A_W) is accounted for. The paper discusses three alternatives in
// Section 2.1 and chooses WriteAll.
type WriteAccounting int

const (
	// WriteAll (the paper's choice, "Access all attributes"): a write query is
	// assumed to write to every site that holds a fraction of any table it
	// accesses, regardless of whether the fraction contains a written
	// attribute. Exact for inserts, a conservative overestimate for updates.
	WriteAll WriteAccounting = iota
	// WriteRelevant ("Access relevant attributes"): a fraction at a site is
	// accounted for only if the site also holds an attribute the query
	// actually writes. The most accurate but quadratic in y, so it is only
	// supported by cost evaluation and the SA solver, not by the QP model.
	WriteRelevant
	// WriteNone ("Access no attributes"): local write access is ignored and
	// only network transfer defines the write cost.
	WriteNone
)

// String names the accounting mode.
func (w WriteAccounting) String() string {
	switch w {
	case WriteAll:
		return "all"
	case WriteRelevant:
		return "relevant"
	case WriteNone:
		return "none"
	default:
		return fmt.Sprintf("WriteAccounting(%d)", int(w))
	}
}

// Default cost model parameters used throughout the paper's evaluation
// (Section 5).
const (
	// DefaultPenalty is the network penalty factor p for a 10-gigabit
	// network versus RAM access.
	DefaultPenalty = 8.0
	// DefaultLambda is the weight of total cost minimisation versus load
	// balancing (λ = 0.1 keeps load balancing as a tie breaker).
	DefaultLambda = 0.1
)

// ModelOptions parameterise the cost model.
type ModelOptions struct {
	// Penalty is the network penalty factor p ≥ 0, finite. p = 0 models
	// local placement of all partitions (no inter-site transfer cost).
	Penalty float64
	// Lambda ∈ [0,1] weights total cost (λ) versus load balancing (1-λ) in
	// objective (6).
	Lambda float64
	// WriteAccounting selects the A_W accounting mode.
	WriteAccounting WriteAccounting
	// LatencyPenalty is the Appendix A latency penalty factor p_l ≥ 0,
	// finite. Zero disables the latency extension.
	LatencyPenalty float64
}

// DefaultModelOptions returns the parameters used by the paper's experiments:
// p = 8, λ = 0.1, "access all attributes" write accounting, no latency term.
func DefaultModelOptions() ModelOptions {
	return ModelOptions{
		Penalty:         DefaultPenalty,
		Lambda:          DefaultLambda,
		WriteAccounting: WriteAll,
	}
}

func (o ModelOptions) validate() error {
	if o.Penalty < 0 {
		return fmt.Errorf("model options: negative penalty %g", o.Penalty)
	}
	if !finite(o.Penalty) {
		return fmt.Errorf("model options: non-finite penalty %g", o.Penalty)
	}
	if !(o.Lambda >= 0 && o.Lambda <= 1) {
		return fmt.Errorf("model options: lambda %g outside [0,1]", o.Lambda)
	}
	if o.LatencyPenalty < 0 {
		return fmt.Errorf("model options: negative latency penalty %g", o.LatencyPenalty)
	}
	if !finite(o.LatencyPenalty) {
		return fmt.Errorf("model options: non-finite latency penalty %g", o.LatencyPenalty)
	}
	switch o.WriteAccounting {
	case WriteAll, WriteRelevant, WriteNone:
	default:
		return fmt.Errorf("model options: invalid write accounting %d", int(o.WriteAccounting))
	}
	return nil
}

// AttrInfo is the compiled catalogue entry of a single attribute.
type AttrInfo struct {
	// ID is the global attribute index in [0, NumAttrs).
	ID int
	// Table is the table index in the schema.
	Table int
	// Qualified is the "Table.Attr" name.
	Qualified QualifiedAttr
	// Width is the attribute width w_a in bytes.
	Width int
}

// queryAccess is one (query, table) access in compiled form.
type queryAccess struct {
	table int
	attrs []int   // global attr ids referenced by the query in this table (α)
	rows  float64 // n_{r,q}
}

// queryInfo is a compiled query.
type queryInfo struct {
	name     string // the query's own name; Queries qualifies it
	txn      int
	write    bool
	freq     float64
	accesses []queryAccess
}

// TermCoef is a sparse (attribute, coefficient) tuple used when iterating the
// non-zero cost terms of a single transaction.
type TermCoef struct {
	Attr int
	// C1 is the quadratic-term coefficient c1(a,t) of objective (4).
	C1 float64
	// C3 is the load coefficient c3(a,t) of equation (5).
	C3 float64
	// Xfer is the transfer weight Σ_q W(a,q)·α(a,q)·γ(q,t)·δ_q saved when a is
	// co-located with t (TransferOwn).
	Xfer float64
}

// AttrTermCoef is the attribute-side transpose of TermCoef: one entry per
// transaction with a non-zero c3(a,t) or TransferOwn(a,t) for attribute a. The
// incremental Evaluator walks these lists to re-account a replica change in
// time proportional to the terms actually touched.
type AttrTermCoef struct {
	Txn int
	// C3 is the load coefficient c3(a,t) of equation (5).
	C3 float64
	// Xfer is TransferOwn(a,t).
	Xfer float64
}

// alphaRef is one written attribute of a write query with its number of
// occurrences across the query's table accesses.
type alphaRef struct {
	attr int32
	mult int32
}

// attrQueryRef says attribute `attr` appears `mult` times in the α set of
// write query `query`.
type attrQueryRef struct {
	query int32
	mult  int32
}

// attrAccessRef links an attribute to one write-query table access over the
// attribute's table: weight is the fraction weight w_a·f_q·n_{r,q} the
// attribute contributes to the "access relevant attributes" accounting, and
// alpha reports whether the access actually writes the attribute.
type attrAccessRef struct {
	access int32
	alpha  bool
	weight float64
}

// Model is the compiled cost model of an instance: the indicator constants
// and coefficients of the paper's Section 2, precomputed for fast evaluation
// and for building the integer program. A Model never changes after
// NewModel (or NewModelConstrained) returns: a drifted instance is compiled
// into a new Model, so Evaluators, partitionings and name lists built over a
// Model stay valid for as long as it is referenced.
//
// The pairwise coefficients c1(a,t) and c3(a,t) are non-zero only where
// transaction t reaches attribute a's table, so the model stores them as
// sparse per-transaction and per-attribute term lists: its memory is
// O(non-zero terms), not O(attrs·txns). C1, C3, TransferOwn and Phi are
// O(log terms) lookups meant for the QP build and for tests; hot loops walk
// TxnTerms and AttrTerms instead.
type Model struct {
	inst *Instance
	opts ModelOptions

	attrs      []AttrInfo
	attrIndex  map[QualifiedAttr]int
	tableAttrs [][]int // table index -> global attr ids
	tableNames []string
	txnNames   []string
	queries    []queryInfo
	// accBuf and idBuf are what is left of the two arrays compileQuery
	// carves every query's accesses and their attribute ids from.
	accBuf []queryAccess
	idBuf  []int

	// Coefficient decomposition (all already multiplied by frequencies and
	// row counts; see cost.go for how they combine):
	//
	//   c3(a,t)          = Σ_q W(a,q)·γ(q,t)·β(a,q)·(1-δ_q)   (TermCoef.C3)
	//   writeLocal[a]    = Σ_q W(a,q)·β(a,q)·δ_q               (= c4)
	//   transferTotal[a] = Σ_q W(a,q)·α(a,q)·δ_q
	//   transferOwn(a,t) = Σ_q W(a,q)·α(a,q)·γ(q,t)·δ_q        (TermCoef.Xfer)
	writeLocal    []float64
	transferTotal []float64

	// txnReadAttrs[t] lists, sorted, the attributes a with the paper's ϕ_{a,t}:
	// some read query of transaction t references a, so a and t must be
	// co-located.
	txnReadAttrs [][]int
	// txnTerms[t] lists, by attribute, the attributes with a non-zero
	// c1(a,t), c3(a,t) or transferOwn(a,t).
	txnTerms [][]TermCoef

	// Reverse indices compiled for the incremental Evaluator:
	//
	//   attrTerms[a]    — transactions with a non-zero c3(a,t) or transferOwn
	//   attrWriteQ[a]   — write queries whose α set contains a (with count)
	//   txnWriteQ[t]    — write queries belonging to transaction t
	//   attrWriteAcc[a] — write-query table accesses over a's table
	attrTerms    [][]AttrTermCoef
	attrWriteQ   [][]attrQueryRef
	txnWriteQ    [][]int32
	attrWriteAcc [][]attrAccessRef
	// writeQFreq/writeQTxn/writeQAlpha describe the compiled write queries in
	// evaluator-friendly form; numWriteAcc counts their table accesses.
	writeQFreq  []float64
	writeQTxn   []int32
	writeQAlpha [][]alphaRef
	numWriteAcc int

	// Placement constraints: consSrc is the name-based set the model was
	// compiled with (nil = unconstrained), cons its compiled, index-based
	// form. Being name-based, one set compiles against every drifted
	// instance of a workload.
	consSrc *Constraints
	cons    *ConstraintSet
}

// NewModel compiles an instance into a cost model. The instance is validated
// first.
func NewModel(inst *Instance, opts ModelOptions) (*Model, error) {
	return NewModelConstrained(inst, opts, nil)
}

// NewModelConstrained compiles an instance into a cost model carrying a
// placement-constraint set: the name-based constraints are resolved against
// the instance and compiled into per-txn/per-attr allowed-site tables the
// solvers and the incremental Evaluator consult. A nil or empty set compiles
// exactly like NewModel, to the nil ConstraintSet — the empty set every
// constraint-aware step accepts.
func NewModelConstrained(inst *Instance, opts ModelOptions, cons *Constraints) (*Model, error) {
	m, err := compileNames(inst)
	if err != nil {
		return nil, err
	}
	m.opts = opts
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if cons.Empty() {
		cons = nil
	}
	m.consSrc = cons
	m.compileCoefficients()
	m.compileAttrTerms()
	m.compileWriteIndices()
	if cons != nil {
		cs, err := compileConstraints(m, cons)
		if err != nil {
			return nil, err
		}
		m.cons = cs
	}
	return m, nil
}

// compileNames validates inst and compiles the part of its model that
// resolves names: the attribute catalogue and every query's attribute ids.
// The catalogue numbers the attributes first, so validation can hand each
// query over to compileQuery with its names already resolved. The grouping
// of a bare instance needs no more than this.
func compileNames(inst *Instance) (*Model, error) {
	m := &Model{inst: inst}
	m.compileCatalogue()
	if err := inst.validate(m.compileQuery); err != nil {
		return nil, err
	}
	return m, nil
}

// compileCatalogue numbers the attributes in declaration order, table by
// table, names the transactions and sizes the compiled queries.
func (m *Model) compileCatalogue() {
	sch := &m.inst.Schema
	nA := sch.NumAttributes()
	m.attrs = make([]AttrInfo, 0, nA)
	m.attrIndex = make(map[QualifiedAttr]int, nA)
	m.tableAttrs = make([][]int, len(sch.Tables))
	m.tableNames = make([]string, len(sch.Tables))
	ids := make([]int, nA)
	for ti, t := range sch.Tables {
		m.tableNames[ti] = t.Name
		first := len(m.attrs)
		for _, a := range t.Attributes {
			id := len(m.attrs)
			q := QualifiedAttr{Table: t.Name, Attr: a.Name}
			m.attrs = append(m.attrs, AttrInfo{
				ID:        id,
				Table:     ti,
				Qualified: q,
				Width:     a.Width,
			})
			m.attrIndex[q] = id
			ids[id] = id
		}
		m.tableAttrs[ti] = ids[first:len(m.attrs):len(m.attrs)]
	}
	txns := m.inst.Workload.Transactions
	m.txnNames = make([]string, len(txns))
	nQ, nAcc, nIDs := 0, 0, 0
	for ti := range txns {
		m.txnNames[ti] = txns[ti].Name
		nQ += len(txns[ti].Queries)
		for qi := range txns[ti].Queries {
			accs := txns[ti].Queries[qi].Accesses
			nAcc += len(accs)
			for i := range accs {
				nIDs += len(accs[i].Attributes)
			}
		}
	}
	m.queries = make([]queryInfo, 0, nQ)
	m.accBuf = make([]queryAccess, nAcc)
	m.idBuf = make([]int, nIDs)
}

// compileQuery compiles query q of transaction txn, a queryVisitor: tables
// and attrs hold the names validation resolved, so no name is looked up.
func (m *Model) compileQuery(txn int, q *Query, tables, attrs []int) {
	accs := m.accBuf[:len(q.Accesses):len(q.Accesses)]
	m.accBuf = m.accBuf[len(q.Accesses):]
	for i := range q.Accesses {
		n := len(q.Accesses[i].Attributes)
		ids := m.idBuf[:n:n]
		m.idBuf = m.idBuf[n:]
		tableAttrs := m.tableAttrs[tables[i]]
		for j, a := range attrs[:n] {
			ids[j] = tableAttrs[a]
		}
		attrs = attrs[n:]
		slices.Sort(ids)
		accs[i] = queryAccess{table: tables[i], attrs: ids, rows: q.Accesses[i].Rows}
	}
	m.queries = append(m.queries, queryInfo{
		name:     q.Name,
		txn:      txn,
		write:    q.IsWrite(),
		freq:     q.Frequency,
		accesses: accs,
	})
}

// compileCoefficients sums the coefficients of Section 2. writeLocal and
// transferTotal are per-attribute sums over all queries in query order. The
// pairwise c3(a,t) and transferOwn(a,t) are summed one transaction at a time
// in a reused per-attribute scratch, also in query order, and each
// transaction's non-zero terms are emitted in attribute order; no dense
// attrs×txns matrix is ever built.
func (m *Model) compileCoefficients() {
	nA, nT := len(m.attrs), len(m.txnNames)
	m.writeLocal = make([]float64, nA)
	m.transferTotal = make([]float64, nA)
	m.txnReadAttrs = make([][]int, nT)
	m.txnTerms = make([][]TermCoef, nT)

	// The scratch of the transaction being summed: its running c3 and
	// transfer-own sums and ϕ bits per attribute, and the attributes touched.
	readLocal := make([]float64, nA)
	transferOwn := make([]float64, nA)
	phi := make([]bool, nA)
	seen := make([]bool, nA)
	var touched []int
	var terms []TermCoef
	var reads []int
	touch := func(a int) {
		if !seen[a] {
			seen[a] = true
			touched = append(touched, a)
		}
	}
	flush := func(t int) {
		sort.Ints(touched)
		terms, reads = terms[:0], reads[:0]
		for _, a := range touched {
			if phi[a] {
				reads = append(reads, a)
			}
			c3, xfer := readLocal[a], transferOwn[a]
			if c1 := c3 - m.opts.Penalty*xfer; c1 != 0 || c3 != 0 || xfer != 0 {
				terms = append(terms, TermCoef{Attr: a, C1: c1, C3: c3, Xfer: xfer})
			}
			readLocal[a], transferOwn[a], phi[a], seen[a] = 0, 0, false, false
		}
		touched = touched[:0]
		if len(terms) > 0 {
			m.txnTerms[t] = slices.Clone(terms)
		}
		if len(reads) > 0 {
			m.txnReadAttrs[t] = slices.Clone(reads)
		}
	}

	// Validation visits each transaction's queries contiguously, so a
	// transaction's scratch is complete when the next one's queries begin.
	for i, q := range m.queries {
		if i > 0 && q.txn != m.queries[i-1].txn {
			flush(m.queries[i-1].txn)
		}
		for _, acc := range q.accesses {
			// β_{a,q} = 1 for every attribute of the accessed table.
			for _, a := range m.tableAttrs[acc.table] {
				w := float64(m.attrs[a].Width) * q.freq * acc.rows
				if q.write {
					m.writeLocal[a] += w
				} else {
					touch(a)
					readLocal[a] += w
				}
			}
			// α_{a,q} = 1 for the referenced attributes only.
			for _, a := range acc.attrs {
				w := float64(m.attrs[a].Width) * q.freq * acc.rows
				touch(a)
				if q.write {
					m.transferTotal[a] += w
					transferOwn[a] += w
				} else {
					phi[a] = true
				}
			}
		}
	}
	if n := len(m.queries); n > 0 {
		flush(m.queries[n-1].txn)
	}
}

// compileAttrTerms builds attrTerms, the attribute-side transpose of
// txnTerms, which the incremental Evaluator walks.
func (m *Model) compileAttrTerms() {
	nA, nT := len(m.attrs), len(m.txnNames)
	m.attrTerms = make([][]AttrTermCoef, nA)
	for t := 0; t < nT; t++ {
		for _, tc := range m.txnTerms[t] {
			if tc.C3 != 0 || tc.Xfer != 0 {
				m.attrTerms[tc.Attr] = append(m.attrTerms[tc.Attr],
					AttrTermCoef{Txn: t, C3: tc.C3, Xfer: tc.Xfer})
			}
		}
	}
}

// compileWriteIndices builds the write-query catalogue (attrWriteQ,
// txnWriteQ, attrWriteAcc, writeQFreq/writeQTxn/writeQAlpha, numWriteAcc)
// from the compiled query list: the reverse indices the incremental
// Evaluator walks for the "access relevant attributes" accounting and the
// Appendix A latency extension.
func (m *Model) compileWriteIndices() {
	nA, nT := len(m.attrs), len(m.txnNames)
	m.attrWriteQ = make([][]attrQueryRef, nA)
	m.txnWriteQ = make([][]int32, nT)
	m.attrWriteAcc = make([][]attrAccessRef, nA)
	for _, q := range m.queries {
		if !q.write {
			continue
		}
		qid := int32(len(m.writeQFreq))
		m.writeQFreq = append(m.writeQFreq, q.freq)
		m.writeQTxn = append(m.writeQTxn, int32(q.txn))
		m.txnWriteQ[q.txn] = append(m.txnWriteQ[q.txn], qid)
		// α multiplicities across the query's accesses; attrs are kept sorted
		// so the compiled lists are deterministic.
		var alpha []alphaRef
		for _, acc := range q.accesses {
			accID := int32(m.numWriteAcc)
			m.numWriteAcc++
			for _, a := range m.tableAttrs[acc.table] {
				ref := attrAccessRef{
					access: accID,
					weight: float64(m.attrs[a].Width) * q.freq * acc.rows,
				}
				for _, wa := range acc.attrs {
					if wa == a {
						ref.alpha = true
						break
					}
				}
				m.attrWriteAcc[a] = append(m.attrWriteAcc[a], ref)
			}
			for _, a := range acc.attrs {
				i := sort.Search(len(alpha), func(i int) bool { return int(alpha[i].attr) >= a })
				if i < len(alpha) && int(alpha[i].attr) == a {
					alpha[i].mult++
					continue
				}
				alpha = append(alpha, alphaRef{})
				copy(alpha[i+1:], alpha[i:])
				alpha[i] = alphaRef{attr: int32(a), mult: 1}
			}
		}
		m.writeQAlpha = append(m.writeQAlpha, alpha)
		for _, ar := range alpha {
			m.attrWriteQ[ar.attr] = append(m.attrWriteQ[ar.attr],
				attrQueryRef{query: qid, mult: ar.mult})
		}
	}
}

// Instance returns the instance the model was compiled from.
func (m *Model) Instance() *Instance { return m.inst }

// Options returns the model parameters.
func (m *Model) Options() ModelOptions { return m.opts }

// Constraints returns the compiled placement-constraint set, nil when the
// model is unconstrained.
func (m *Model) Constraints() *ConstraintSet { return m.cons }

// SourceConstraints returns the name-based constraint set the model was
// compiled with, nil when unconstrained.
func (m *Model) SourceConstraints() *Constraints { return m.consSrc }

// ValidateConstraintSites checks the model's compiled constraints against a
// concrete site count: every referenced site must exist and every
// transaction and attribute must keep at least one allowed site. A no-op for
// unconstrained models.
func (m *Model) ValidateConstraintSites(sites int) error {
	if m.cons == nil {
		return nil
	}
	return m.cons.validateSites(m, sites)
}

// CheckConstraints verifies the partitioning against the model's compiled
// constraints (nil-safe; unconstrained models accept everything).
func (m *Model) CheckConstraints(p *Partitioning) error {
	if m.cons == nil {
		return nil
	}
	return m.cons.check(m, p, false)
}

// CheckConstraintsPartial is CheckConstraints for a partitioning that may
// predate delta-grown dimensions: constraint references to what it does not
// place — transactions and attributes beyond its counts, transactions on a
// negative site, attributes stored nowhere — are skipped. Session.Adopt
// carries an anchor by name onto its model with Carry, which leaves what the
// anchor predates unplaced, and uses this check to reject a
// constraint-violating anchor before Repair places the rest.
func (m *Model) CheckConstraintsPartial(p *Partitioning) error {
	if m.cons == nil {
		return nil
	}
	return m.cons.check(m, p, true)
}

// NumAttrs returns |A|.
func (m *Model) NumAttrs() int { return len(m.attrs) }

// NumTxns returns |T|.
func (m *Model) NumTxns() int { return len(m.txnNames) }

// NumTables returns the number of tables in the schema.
func (m *Model) NumTables() int { return len(m.tableAttrs) }

// NumQueries returns the number of compiled queries.
func (m *Model) NumQueries() int { return len(m.queries) }

// Attr returns the catalogue entry of attribute a.
func (m *Model) Attr(a int) AttrInfo { return m.attrs[a] }

// Attrs returns the full attribute catalogue (do not modify).
func (m *Model) Attrs() []AttrInfo { return m.attrs }

// AttrID resolves a qualified attribute name to its global index.
func (m *Model) AttrID(q QualifiedAttr) (int, bool) {
	id, ok := m.attrIndex[q]
	return id, ok
}

// TableName returns the name of table index t.
func (m *Model) TableName(t int) string { return m.tableNames[t] }

// TableAttrs returns the global attribute ids of table index t (do not
// modify).
func (m *Model) TableAttrs(t int) []int { return m.tableAttrs[t] }

// TxnName returns the name of transaction index t.
func (m *Model) TxnName(t int) string { return m.txnNames[t] }

// TxnIndex resolves a transaction name to its index.
func (m *Model) TxnIndex(name string) (int, bool) {
	for i, n := range m.txnNames {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// Phi reports ϕ_{a,t}: whether any read query of transaction t references
// attribute a (so a must be co-located with t). O(log) in t's read set.
func (m *Model) Phi(a, t int) bool {
	_, ok := slices.BinarySearch(m.txnReadAttrs[t], a)
	return ok
}

// TxnReadAttrs returns the attributes that must be co-located with
// transaction t (sorted, do not modify).
func (m *Model) TxnReadAttrs(t int) []int { return m.txnReadAttrs[t] }

// TxnTerms returns the attributes with a non-zero c1, c3 or transfer-own
// coefficient for transaction t (do not modify).
func (m *Model) TxnTerms(t int) []TermCoef { return m.txnTerms[t] }

// AttrTerms returns the transactions with a non-zero c3 or transfer-own
// coefficient for attribute a (the transpose of TxnTerms; do not modify).
func (m *Model) AttrTerms(a int) []AttrTermCoef { return m.attrTerms[a] }

// term returns transaction t's term for attribute a, or the zero term when
// the pair has no non-zero coefficient. O(log) in t's term count.
func (m *Model) term(a, t int) TermCoef {
	terms := m.txnTerms[t]
	if i, ok := slices.BinarySearchFunc(terms, a, func(tc TermCoef, a int) int { return tc.Attr - a }); ok {
		return terms[i]
	}
	return TermCoef{}
}

// C1 returns the quadratic coefficient c1(a,t) of objective (4):
//
//	c1(a,t) = Σ_q W(a,q)·γ(q,t)·(β(a,q)(1-δ_q) - p·α(a,q)·δ_q)
//
// It is a lookup for the QP build and for tests; hot loops walk TxnTerms.
func (m *Model) C1(a, t int) float64 { return m.term(a, t).C1 }

// C2 returns the linear coefficient c2(a) of objective (4):
//
//	c2(a) = Σ_q W(a,q)·δ_q·(β(a,q) + p·α(a,q))
//
// Under WriteNone accounting the β term is dropped.
func (m *Model) C2(a int) float64 {
	c := m.opts.Penalty * m.transferTotal[a]
	if m.opts.WriteAccounting != WriteNone {
		c += m.writeLocal[a]
	}
	return c
}

// C3 returns the load coefficient c3(a,t) = Σ_q W(a,q)·γ(q,t)·β(a,q)·(1-δ_q)
// of equation (5). Like C1, a lookup; hot loops walk TxnTerms or AttrTerms.
func (m *Model) C3(a, t int) float64 { return m.term(a, t).C3 }

// C4 returns the load coefficient c4(a) = Σ_q W(a,q)·β(a,q)·δ_q of equation
// (5). Under WriteNone accounting it is zero.
func (m *Model) C4(a int) float64 {
	if m.opts.WriteAccounting == WriteNone {
		return 0
	}
	return m.writeLocal[a]
}

// TransferTotal returns Σ_q W(a,q)·α(a,q)·δ_q, the transfer weight of
// attribute a summed over all write queries.
func (m *Model) TransferTotal(a int) float64 { return m.transferTotal[a] }

// TransferOwn returns Σ_q W(a,q)·α(a,q)·γ(q,t)·δ_q, the transfer weight of
// attribute a for write queries belonging to transaction t (the part that is
// saved when a is co-located with t). Like C1, a lookup.
func (m *Model) TransferOwn(a, t int) float64 { return m.term(a, t).Xfer }

// WriteQueryInfo describes one write query of the workload in compiled form.
// It is used by the Appendix A latency extension of the QP model and by the
// execution simulator.
type WriteQueryInfo struct {
	// Name is "transaction/query".
	Name string
	// Txn is the owning transaction index.
	Txn int
	// Freq is the query frequency f_q.
	Freq float64
	// Attrs are the global ids of the attributes the query writes (its α set),
	// across all accessed tables.
	Attrs []int
}

// AccessInfo is one (query, table) access in compiled, index-based form.
type AccessInfo struct {
	// Table is the table index.
	Table int
	// Attrs are the global ids of the attributes the query references in the
	// table (its α set there).
	Attrs []int
	// Rows is n_{r,q}.
	Rows float64
}

// QueryInfo is a compiled query in index-based form, used by the execution
// simulator.
type QueryInfo struct {
	// Name is "transaction/query".
	Name string
	// Txn is the owning transaction index.
	Txn int
	// Write reports δ_q.
	Write bool
	// Freq is f_q.
	Freq float64
	// Accesses lists the table accesses.
	Accesses []AccessInfo
}

// queryName returns the "transaction/query" name of compiled query q.
func (m *Model) queryName(q queryInfo) string { return m.txnNames[q.txn] + "/" + q.name }

// Queries returns all compiled queries of the workload in declaration order.
func (m *Model) Queries() []QueryInfo {
	out := make([]QueryInfo, 0, len(m.queries))
	for _, q := range m.queries {
		info := QueryInfo{Name: m.queryName(q), Txn: q.txn, Write: q.write, Freq: q.freq}
		for _, acc := range q.accesses {
			info.Accesses = append(info.Accesses, AccessInfo{
				Table: acc.table,
				Attrs: append([]int(nil), acc.attrs...),
				Rows:  acc.rows,
			})
		}
		out = append(out, info)
	}
	return out
}

// WriteQueries returns the compiled write queries of the workload.
func (m *Model) WriteQueries() []WriteQueryInfo {
	var out []WriteQueryInfo
	for _, q := range m.queries {
		if !q.write {
			continue
		}
		info := WriteQueryInfo{Name: m.queryName(q), Txn: q.txn, Freq: q.freq}
		for _, acc := range q.accesses {
			info.Attrs = append(info.Attrs, acc.attrs...)
		}
		out = append(out, info)
	}
	return out
}
