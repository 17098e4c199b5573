// Command vpart partitions a problem instance onto a number of sites and
// prints the resulting layout and its cost breakdown. A SIGINT cancels the
// solve context and aborts the running solver promptly.
//
// Usage examples:
//
//	vpart -tpcc -sites 3 -solver qp
//	vpart -tpcc -sites 3 -solver portfolio -portfolio-seeds 8
//	vpart -instance myapp.json -sites 4 -solver sa -p 8 -lambda 0.1
//	vpart -class rndAt8x15 -sites 2 -disjoint -out layout.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"vpart"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vpart:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("vpart", flag.ContinueOnError)
	var (
		instancePath = fs.String("instance", "", "path to a problem instance JSON file")
		useTPCC      = fs.Bool("tpcc", false, "use the built-in TPC-C v5 instance")
		className    = fs.String("class", "", "generate a named random instance class (e.g. rndAt8x15)")
		seed         = fs.Int64("seed", 1, "random seed for instance generation and the SA solver (0 = derive a distinct seed)")
		sites        = fs.Int("sites", 2, "number of sites |S|")
		solver       = fs.String("solver", "sa", "solver: "+strings.Join(vpart.Solvers(), ", "))
		penalty      = fs.Float64("p", vpart.DefaultPenalty, "network penalty factor p (0 = local placement)")
		lambda       = fs.Float64("lambda", vpart.DefaultLambda, "cost vs load balancing weight λ in [0,1]")
		latency      = fs.Float64("latency", 0, "Appendix A latency penalty p_l (0 = disabled)")
		disjoint     = fs.Bool("disjoint", false, "forbid attribute replication")
		consPath     = fs.String("constraints", "", "path to a placement-constraints JSON file")
		pins         = fs.String("pin", "", "comma-separated pins, e.g. 'txn=NewOrder:1,attr=WAREHOUSE.W_ID:0' (0-based sites; merged into -constraints)")
		noGrouping   = fs.Bool("no-grouping", false, "disable the reasonable-cuts attribute grouping")
		preprocess   = fs.String("preprocess", "", "preprocessing pipeline: group, none or decompose (empty = group unless -no-grouping)")
		dcSolver     = fs.String("decompose-solver", "", "decompose meta-solver: inner solver per shard (default portfolio)")
		dcWorkers    = fs.Int("decompose-workers", 0, "decompose meta-solver: max concurrently solved shards (0 = GOMAXPROCS)")
		seedWithSA   = fs.Bool("seed-with-sa", true, "seed the QP solver with the SA solution")
		timeout      = fs.Duration("timeout", 5*time.Minute, "soft solver time limit: stop and keep the best incumbent (0 = none)")
		gap          = fs.Float64("gap", 0.001, "QP relative MIP gap")
		pfSeeds      = fs.Int("portfolio-seeds", vpart.DefaultPortfolioSASeeds, "portfolio solver: number of concurrent SA seeds")
		pfQP         = fs.Bool("portfolio-qp", false, "portfolio solver: also race the exact QP solver")
		replicas     = fs.Int("replicas", 0, "sa-par solver: parallel-tempering replica count K (0 = default)")
		layoutOut    = fs.String("out", "", "write the resulting assignment as JSON to this file")
		ddlOut       = fs.String("ddl", "", "write per-site fragment DDL to this file")
		reportOut    = fs.String("report", "", "write a markdown advisor report to this file")
		quiet        = fs.Bool("quiet", false, "only print the cost summary, not the full layout")
		verbose      = fs.Bool("v", false, "print solver progress events")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	inst, err := loadInstance(*instancePath, *useTPCC, *className, *seed)
	if err != nil {
		return err
	}
	st := inst.Stats()
	fmt.Printf("instance: %s\n", st)

	mo := vpart.DefaultModelOptions()
	mo.Penalty = *penalty
	mo.Lambda = *lambda
	mo.LatencyPenalty = *latency

	cons, err := loadConstraints(*consPath, *pins)
	if err != nil {
		return err
	}
	if !cons.Empty() {
		fmt.Printf("constraints: %s\n", cons)
	}

	opts := vpart.Options{
		Sites:           *sites,
		Solver:          *solver,
		Model:           &mo,
		Disjoint:        *disjoint,
		DisableGrouping: *noGrouping,
		TimeLimit:       *timeout,
		GapTol:          *gap,
		SeedWithSA:      *seedWithSA,
		Seed:            *seed,
		Preprocess:      *preprocess,
		Constraints:     cons,
		Parallel:        vpart.ParallelOptions{Replicas: *replicas},
		Portfolio:       vpart.PortfolioOptions{SASeeds: *pfSeeds, QP: *pfQP, SAPar: *replicas},
		Decompose:       vpart.DecomposeOptions{Solver: *dcSolver, Workers: *dcWorkers},
	}
	if *verbose {
		opts.Progress = func(e vpart.Event) {
			fmt.Fprintln(os.Stderr, e.String())
		}
	}

	sol, err := vpart.Solve(ctx, inst, opts)
	if err != nil {
		return err
	}
	if sol.Partitioning == nil {
		return fmt.Errorf("no feasible partitioning found within the limits (status: timed out)")
	}

	fmt.Printf("solver: %s  sites: %d  attribute groups: %d (of %d attributes)  runtime: %v\n",
		sol.Solver, *sites, sol.AttributeGroups, st.Attributes, sol.Runtime.Round(time.Millisecond))
	if len(sol.Shards) > 0 {
		fmt.Printf("decomposed into %d shard(s):\n", len(sol.Shards))
		for _, sh := range sol.Shards {
			fmt.Printf("  shard %d: %d tables, %d attr groups, %d txns  solver=%s  objective=%.0f  (%v)\n",
				sh.Shard, sh.Tables, sh.Attrs, sh.Txns, sh.Solver, sh.Objective, sh.Runtime.Round(time.Millisecond))
		}
	}
	if strings.HasSuffix(sol.Solver, "qp") {
		fmt.Printf("optimal: %v  gap: %.4f  nodes: %d\n", sol.Optimal, sol.Gap, sol.Nodes)
	}
	c := sol.Cost
	fmt.Printf("objective (4): %.0f bytes   [A_R=%.0f  A_W=%.0f  B=%.0f  p·B=%.0f]\n",
		c.Objective, c.ReadAccess, c.WriteAccess, c.Transfer, mo.Penalty*c.Transfer)
	fmt.Printf("objective (6): %.0f   max site work: %.0f\n", c.Balanced, c.MaxWork)
	for s, w := range c.SiteWork {
		fmt.Printf("  site %d work: %.0f\n", s+1, w)
	}
	baseline, err := vpart.Evaluate(inst, mo, vpart.SingleSitePartitioning(sol.Model, 1))
	if err == nil && baseline.Objective > 0 {
		fmt.Printf("single-site baseline: %.0f  (reduction %.1f%%)\n",
			baseline.Objective, 100*(1-c.Objective/baseline.Objective))
	}

	if !*quiet {
		fmt.Println()
		fmt.Println(sol.Partitioning.Format(sol.Model))
	}
	if *layoutOut != "" {
		as := sol.Partitioning.ToAssignment(sol.Model)
		if err := vpart.SaveAssignment(*layoutOut, as); err != nil {
			return err
		}
		fmt.Printf("assignment written to %s\n", *layoutOut)
	}
	if *ddlOut != "" {
		ddl, err := vpart.DDL(sol)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*ddlOut, []byte(ddl), 0o644); err != nil {
			return fmt.Errorf("write DDL: %w", err)
		}
		fmt.Printf("fragment DDL written to %s\n", *ddlOut)
	}
	if *reportOut != "" {
		rep, err := vpart.Report(sol)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportOut, []byte(rep), 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
		fmt.Printf("report written to %s\n", *reportOut)
	}
	return nil
}

// loadConstraints combines the -constraints file with the -pin shorthand
// specs into one constraint set (nil when both are empty).
func loadConstraints(path, pins string) (*vpart.Constraints, error) {
	var cons *vpart.Constraints
	if path != "" {
		var err error
		cons, err = vpart.LoadConstraints(path)
		if err != nil {
			return nil, err
		}
	}
	if pins == "" {
		return cons, nil
	}
	if cons == nil {
		cons = &vpart.Constraints{}
	}
	for _, spec := range strings.Split(pins, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		kind, rest, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("invalid -pin spec %q (want txn=NAME:SITE or attr=TABLE.ATTR:SITE)", spec)
		}
		ref, siteStr, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("invalid -pin spec %q: missing :SITE", spec)
		}
		site, err := strconv.Atoi(siteStr)
		if err != nil || site < 0 {
			return nil, fmt.Errorf("invalid -pin spec %q: bad site %q", spec, siteStr)
		}
		switch kind {
		case "txn":
			cons.PinTxns = append(cons.PinTxns, vpart.PinTxn{Txn: ref, Site: site})
		case "attr":
			qa, err := vpart.ParseQualifiedAttr(ref)
			if err != nil {
				return nil, fmt.Errorf("invalid -pin spec %q: %w", spec, err)
			}
			cons.PinAttrs = append(cons.PinAttrs, vpart.PinAttr{Attr: qa, Site: site})
		default:
			return nil, fmt.Errorf("invalid -pin spec %q: unknown kind %q (want txn or attr)", spec, kind)
		}
	}
	return cons, nil
}

// loadInstance resolves the instance from the mutually exclusive input flags.
func loadInstance(path string, useTPCC bool, class string, seed int64) (*vpart.Instance, error) {
	selected := 0
	if path != "" {
		selected++
	}
	if useTPCC {
		selected++
	}
	if class != "" {
		selected++
	}
	if selected == 0 {
		return nil, fmt.Errorf("select an instance with -instance, -tpcc or -class")
	}
	if selected > 1 {
		return nil, fmt.Errorf("-instance, -tpcc and -class are mutually exclusive")
	}
	switch {
	case useTPCC:
		return vpart.TPCC(), nil
	case class != "":
		params, ok := vpart.RandomClass(class)
		if !ok {
			return nil, fmt.Errorf("unknown instance class %q (see vpart-gen -list)", class)
		}
		return vpart.RandomInstance(params, seed)
	default:
		return vpart.LoadInstance(path)
	}
}
