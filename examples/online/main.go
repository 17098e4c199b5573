// Command online demonstrates the online re-partitioning workflow: a
// vpart.Session owns a live instance and its incumbent layout, workload
// drift arrives as typed deltas, and every Resolve warm-starts from the
// previous incumbent instead of solving from scratch.
//
// The demo anchors a session on TPC-C with one thorough portfolio solve,
// then replays a 6-step random drift trace (vpart.Drift), re-solving warm
// after each step and printing what the session did: the do-nothing baseline
// (the stale incumbent re-priced under the drifted workload), the warm
// re-solve's cost and time, and whether the warm path produced the winner.
//
// Run with:
//
//	go run ./examples/online
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"vpart"
)

func main() {
	ctx := context.Background()
	inst := vpart.TPCC()
	const sites = 3

	// A session with a cheap per-resolve solver...
	sess, err := vpart.NewSession(inst, vpart.Options{Sites: sites, Solver: "sa", Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	// ...anchored on one thorough portfolio solve.
	anchor, err := vpart.Solve(ctx, inst, vpart.Options{Sites: sites, Solver: "portfolio", Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Adopt(anchor); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("anchor: %s cost %.0f bytes (balanced %.0f) in %v\n\n",
		anchor.Solver, anchor.Cost.Objective, anchor.Cost.Balanced, anchor.Runtime.Round(time.Millisecond))

	// A deterministic drift trace: every step re-weights, adds or retires a
	// few queries (and occasionally grows a table).
	trace, err := vpart.Drift(inst, 6, 0.2, 42)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-5s %-5s %12s %12s %9s %7s %s\n",
		"step", "ops", "stale", "resolved", "improve", "time", "winner")
	for i, delta := range trace {
		if err := sess.Apply(delta); err != nil {
			log.Fatal(err)
		}
		sol, stats, err := sess.Resolve(ctx)
		if err != nil {
			log.Fatal(err)
		}
		improve := 100 * (1 - stats.Cost.Balanced/stats.StaleCost.Balanced)
		fmt.Printf("%-5d %-5d %12.0f %12.0f %8.2f%% %7s %s\n",
			i+1, stats.DeltaOps, stats.StaleCost.Balanced, stats.Cost.Balanced,
			improve, stats.Runtime.Round(time.Millisecond), sol.Solver)
	}

	final := sess.Incumbent()
	fmt.Printf("\nfinal layout after %d drift steps (%d queries now):\n%s\n",
		len(trace), sess.Instance().NumQueries(), final.Partitioning.Format(final.Model))
}
