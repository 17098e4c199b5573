package vpart

import (
	"context"
	"fmt"
	"io"

	"vpart/internal/core"
	"vpart/internal/engine"
	"vpart/internal/randgen"
	"vpart/internal/report"
	"vpart/internal/tpcc"
	"vpart/internal/trace"
)

// Re-exported domain types. The root package is the public API of the
// library; the internal packages carry the implementations.
type (
	// Instance is a vertical partitioning problem: a schema plus a workload.
	Instance = core.Instance
	// Schema is a relational schema.
	Schema = core.Schema
	// Table is a named set of attributes.
	Table = core.Table
	// Attribute is a single column with its average width in bytes.
	Attribute = core.Attribute
	// Query is a read or write query with statistics.
	Query = core.Query
	// QueryKind distinguishes read from write queries.
	QueryKind = core.QueryKind
	// TableAccess describes how a query touches one table.
	TableAccess = core.TableAccess
	// Transaction is a named group of queries with one primary executing site.
	Transaction = core.Transaction
	// Workload is the set of transactions to optimise for.
	Workload = core.Workload
	// Stats summarises instance dimensions.
	Stats = core.Stats

	// Model is the compiled cost model of an instance.
	Model = core.Model
	// ModelOptions are the cost model parameters (p, λ, write accounting,
	// latency penalty).
	ModelOptions = core.ModelOptions
	// WriteAccounting selects how local write access is accounted for.
	WriteAccounting = core.WriteAccounting
	// Cost is a full cost breakdown of a partitioning.
	Cost = core.Cost

	// Partitioning assigns transactions and attributes to sites.
	Partitioning = core.Partitioning
	// Evaluator incrementally re-evaluates the cost of a partitioning under
	// moves: ApplyMoveTxn relocates a transaction, ApplyAddReplica and
	// ApplyDropReplica edit an attribute's replica set, and each returns the
	// balanced-objective delta in time proportional to the cost terms the
	// move touches. Undo reverts the moves since the last Commit, the Allow
	// methods check them against placement constraints, and Snapshot/Restore
	// keep the best incumbent. It is the evaluation engine behind the SA
	// solver's hot loop; Model.Evaluate stays the reference oracle.
	Evaluator = core.Evaluator
	// EvalSnapshot is a saved Evaluator state (see Evaluator.Snapshot).
	EvalSnapshot = core.EvalSnapshot
	// TermCoef is a sparse per-transaction cost term (see Model.TxnTerms).
	TermCoef = core.TermCoef
	// AttrTermCoef is a sparse per-attribute cost term (see Model.AttrTerms).
	AttrTermCoef = core.AttrTermCoef
	// Assignment is the name-based, serialisable form of a partitioning.
	Assignment = core.Assignment
	// QualifiedAttr is a "Table.Attr" reference.
	QualifiedAttr = core.QualifiedAttr
	// Grouping is the result of the reasonable-cuts preprocessing.
	Grouping = core.Grouping

	// RandomParams parameterise the random instance generator (the paper's
	// Table 1/Table 2 columns).
	RandomParams = randgen.Params

	// SimOptions configure the execution simulator.
	SimOptions = engine.Options
	// SimResult holds the measured bytes of a simulation run.
	SimResult = engine.Measured
)

// Query kinds.
const (
	Read  = core.Read
	Write = core.Write
)

// Write accounting modes (Section 2.1 of the paper).
const (
	WriteAll      = core.WriteAll
	WriteRelevant = core.WriteRelevant
	WriteNone     = core.WriteNone
)

// Default cost model parameters used in the paper's evaluation.
const (
	DefaultPenalty = core.DefaultPenalty
	DefaultLambda  = core.DefaultLambda
)

// Query constructors.
var (
	// NewRead builds a read query over a single table.
	NewRead = core.NewRead
	// NewWrite builds a write query over a single table.
	NewWrite = core.NewWrite
	// NewUpdate models an UPDATE as a read sub-query plus a write sub-query,
	// as the paper does.
	NewUpdate = core.NewUpdate
)

// Model construction and evaluation.
var (
	// NewModel compiles an instance into a cost model.
	NewModel = core.NewModel
	// NewModelConstrained compiles an instance into a cost model carrying a
	// placement-constraint set (nil behaves exactly like NewModel).
	NewModelConstrained = core.NewModelConstrained
	// NewEvaluator compiles an incremental evaluator for a partitioning under
	// a model. The partitioning is deep-copied; edit through the evaluator's
	// ApplyMoveTxn, ApplyAddReplica and ApplyDropReplica.
	NewEvaluator = core.NewEvaluator
	// DefaultModelOptions returns p = 8, λ = 0.1, "access all attributes".
	DefaultModelOptions = core.DefaultModelOptions
	// GroupAttributes computes the reasonable-cuts attribute grouping. When
	// no two attributes merge it returns Grouped == inst, the input itself
	// rather than a copy; treat Grouped as read-only.
	GroupAttributes = core.GroupAttributes
	// SingleSitePartitioning returns the trivial all-on-one-site layout.
	SingleSitePartitioning = core.SingleSite
	// FullReplicationPartitioning replicates every attribute to every site.
	FullReplicationPartitioning = core.FullReplication
)

// Instance and assignment (de)serialisation.
var (
	LoadInstance   = core.LoadInstance
	SaveInstance   = core.SaveInstance
	EncodeInstance = core.EncodeInstance
	DecodeInstance = core.DecodeInstance

	LoadAssignment   = core.LoadAssignment
	SaveAssignment   = core.SaveAssignment
	EncodeAssignment = core.EncodeAssignment
	DecodeAssignment = core.DecodeAssignment

	// FromAssignment converts a name-based assignment back to a partitioning.
	FromAssignment = core.FromAssignment

	// ParseQualifiedAttr parses a "Table.Attr" reference.
	ParseQualifiedAttr = core.ParseQualifiedAttr
)

// TPCC returns the TPC-C v5 instance (9 tables, 92 attributes, 5
// transactions) with the statistical assumptions of the paper's Section 5.2.
func TPCC() *Instance { return tpcc.Instance() }

// DefaultRandomParams returns the default random-instance parameters of the
// paper's Table 1 for the given workload size.
func DefaultRandomParams(transactions, tables int) RandomParams {
	return randgen.DefaultParams(transactions, tables)
}

// ClassA returns the parameters of the paper's rndA… instance family (large
// expected gain from vertical partitioning).
func ClassA(tables, transactions, updatePercent int) RandomParams {
	return randgen.ClassA(tables, transactions, updatePercent)
}

// ClassB returns the parameters of the paper's rndB… instance family (small
// expected gain).
func ClassB(tables, transactions, updatePercent int) RandomParams {
	return randgen.ClassB(tables, transactions, updatePercent)
}

// MultiComponentClass returns a ClassA-style workload whose access graph
// splits into at least the given number of independent components (e.g.
// "rndAt32x120c4"); these instances exercise the decomposition pipeline.
func MultiComponentClass(components, tables, transactions, updatePercent int) RandomParams {
	return randgen.MultiComponent(components, tables, transactions, updatePercent)
}

// NamedRandomClasses returns every named random instance class of the
// paper's Table 2 (plus the 64-table variants of Table 3).
func NamedRandomClasses() []RandomParams { return randgen.NamedClasses() }

// RandomClass looks up a named random instance class such as "rndAt8x15".
func RandomClass(name string) (RandomParams, bool) { return randgen.Class(name) }

// RandomInstance generates a random instance from the given class parameters
// and seed. Equal seeds give equal instances.
func RandomInstance(params RandomParams, seed int64) (*Instance, error) {
	return randgen.Generate(params, seed)
}

// Drift generates a deterministic sequence of workload deltas for an
// instance — the drift traces the online re-partitioning benchmarks and
// examples replay through a Session. Each of the steps deltas perturbs about
// churn·|T| transactions (frequency re-weighting, query additions/removals,
// occasional schema growth); deltas apply in sequence. Equal seeds give
// equal traces.
func Drift(inst *Instance, steps int, churn float64, seed int64) ([]WorkloadDelta, error) {
	return randgen.Drift(inst, steps, churn, seed)
}

// Evaluate compiles a model for the instance and evaluates the cost of a
// partitioning under it.
func Evaluate(inst *Instance, opts ModelOptions, p *Partitioning) (Cost, error) {
	m, err := core.NewModel(inst, opts)
	if err != nil {
		return Cost{}, err
	}
	if err := p.Validate(m); err != nil {
		return Cost{}, err
	}
	return m.Evaluate(p), nil
}

// Simulate executes the instance's workload against an H-store-like cluster
// simulator partitioned according to p, and returns the measured bytes. The
// measured quantities equal the analytical cost model's A_R, A_W and B for
// feasible partitionings. Cancelling the context stops the run with an error
// wrapping ctx.Err().
func Simulate(ctx context.Context, inst *Instance, opts ModelOptions, p *Partitioning, simOpts SimOptions) (*SimResult, error) {
	m, err := core.NewModel(inst, opts)
	if err != nil {
		return nil, err
	}
	meas, _, err := engine.Run(ctx, m, p, simOpts)
	return meas, err
}

// WriteInstance writes an instance as JSON to w. It is a small convenience
// wrapper over EncodeInstance for symmetry with ReadInstance.
func WriteInstance(w io.Writer, inst *Instance) error { return core.EncodeInstance(w, inst) }

// ReadInstance reads and validates an instance from JSON.
func ReadInstance(r io.Reader) (*Instance, error) { return core.DecodeInstance(r) }

// SchemaFromCSV parses a "table,attribute,width" CSV (as produced from a
// catalogue dump) into a Schema.
func SchemaFromCSV(r io.Reader) (Schema, error) { return trace.ParseSchemaCSV(r) }

// InstanceFromTrace combines a schema with a captured workload trace CSV
// ("transaction,query,kind,table,attributes,rows,frequency"; kind is read,
// write or update) into a validated problem instance. See internal/trace for
// the exact format.
func InstanceFromTrace(name string, schema Schema, workload io.Reader) (*Instance, error) {
	return trace.BuildInstance(name, schema, workload)
}

// DDL generates per-site CREATE TABLE statements for the vertical fragments
// of a solution (one statement per table fraction per site). The column types
// are generic binary types of the attribute widths; the output documents the
// fragmentation rather than being a runnable migration.
func DDL(sol *Solution) (string, error) {
	if sol == nil || sol.Partitioning == nil || sol.Model == nil {
		return "", fmt.Errorf("vpart: DDL requires a solution with a partitioning")
	}
	return report.DDLString(sol.Model, sol.Partitioning), nil
}

// Report renders a markdown advisor report for a solution: the cost
// breakdown, the per-site layout with fragment widths and work shares, and
// the list of replicated attributes.
func Report(sol *Solution) (string, error) {
	if sol == nil || sol.Partitioning == nil || sol.Model == nil {
		return "", fmt.Errorf("vpart: Report requires a solution with a partitioning")
	}
	return report.Markdown(sol.Model, sol.Partitioning, sol.Cost), nil
}
