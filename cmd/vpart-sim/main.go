// Command vpart-sim executes a workload against the H-store-like cluster
// simulator, partitioned either by a stored assignment or by running the SA
// solver first, and compares the measured bytes with the analytical cost
// model.
//
// Usage examples:
//
//	vpart-sim -tpcc -sites 3
//	vpart-sim -instance app.json -assignment layout.json -rounds 10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"vpart"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vpart-sim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("vpart-sim", flag.ContinueOnError)
	var (
		instancePath = fs.String("instance", "", "path to a problem instance JSON file")
		useTPCC      = fs.Bool("tpcc", false, "use the built-in TPC-C v5 instance")
		assignment   = fs.String("assignment", "", "partitioning assignment JSON (default: solve with SA first)")
		sites        = fs.Int("sites", 2, "number of sites (when solving)")
		penalty      = fs.Float64("p", vpart.DefaultPenalty, "network penalty factor p")
		lambda       = fs.Float64("lambda", vpart.DefaultLambda, "load balancing weight λ")
		rounds       = fs.Int("rounds", 1, "number of times to execute the whole workload")
		rowsPerTable = fs.Int("rows", 64, "synthetic rows materialised per table fraction")
		seed         = fs.Int64("seed", 1, "SA solver seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rounds < 1 {
		return fmt.Errorf("-rounds must be at least 1, got %d", *rounds)
	}

	var inst *vpart.Instance
	var err error
	switch {
	case *useTPCC && *instancePath != "":
		return fmt.Errorf("-tpcc and -instance are mutually exclusive")
	case *useTPCC:
		inst = vpart.TPCC()
	case *instancePath != "":
		inst, err = vpart.LoadInstance(*instancePath)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("select an instance with -tpcc or -instance")
	}

	mo := vpart.DefaultModelOptions()
	mo.Penalty = *penalty
	mo.Lambda = *lambda
	model, err := vpart.NewModel(inst, mo)
	if err != nil {
		return err
	}

	var part *vpart.Partitioning
	if *assignment != "" {
		as, err := vpart.LoadAssignment(*assignment)
		if err != nil {
			return err
		}
		part, err = vpart.FromAssignment(model, as)
		if err != nil {
			return err
		}
	} else {
		sol, err := vpart.Solve(ctx, inst, vpart.Options{
			Sites: *sites, Solver: "sa", Model: &mo, Seed: *seed,
		})
		if err != nil {
			return err
		}
		part = sol.Partitioning
		fmt.Printf("partitioned with SA onto %d sites (objective %.0f)\n", *sites, sol.Cost.Objective)
	}

	cost := model.Evaluate(part)
	meas, err := vpart.Simulate(ctx, inst, mo, part, vpart.SimOptions{
		Rounds: *rounds, RowsPerTable: *rowsPerTable,
	})
	if err != nil {
		return err
	}

	scale := float64(*rounds)
	fmt.Printf("executed %d transaction(s) over %d round(s), %d network message(s)\n",
		meas.Transactions, *rounds, meas.NetworkMessages)
	fmt.Printf("%-22s %15s %15s\n", "", "cost model", "simulator/round")
	fmt.Printf("%-22s %15.0f %15.0f\n", "local read bytes (A_R)", cost.ReadAccess, meas.ReadBytes/scale)
	fmt.Printf("%-22s %15.0f %15.0f\n", "local write bytes (A_W)", cost.WriteAccess, meas.WriteBytes/scale)
	fmt.Printf("%-22s %15.0f %15.0f\n", "transferred bytes (B)", cost.Transfer, meas.TransferBytes/scale)
	fmt.Printf("%-22s %15.0f %15.0f\n", "objective (4)", cost.Objective, meas.PenalisedCost/scale)
	for s := range cost.SiteWork {
		fmt.Printf("site %d work%11s %15.0f %15.0f\n", s+1, "", cost.SiteWork[s], meas.SiteBytes[s]/scale)
	}
	return nil
}
