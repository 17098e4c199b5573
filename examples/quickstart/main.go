// Quickstart: define a tiny schema and workload by hand, partition it onto
// two sites with every registered solver — the SA heuristic, the exact QP and
// the concurrent portfolio — and print the layouts and costs. Solver progress
// arrives as a typed event stream (incumbent found, bound improved,
// iteration milestones) instead of log lines.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"vpart"
)

func main() {
	// A small web-shop style schema: a wide Users table and an Orders table.
	inst := &vpart.Instance{
		Name: "webshop",
		Schema: vpart.Schema{Tables: []vpart.Table{
			{Name: "Users", Attributes: []vpart.Attribute{
				{Name: "id", Width: 8},
				{Name: "email", Width: 40},
				{Name: "password_hash", Width: 64},
				{Name: "full_name", Width: 40},
				{Name: "address", Width: 120},
				{Name: "last_login", Width: 8},
				{Name: "balance", Width: 8},
			}},
			{Name: "Orders", Attributes: []vpart.Attribute{
				{Name: "id", Width: 8},
				{Name: "user_id", Width: 8},
				{Name: "created_at", Width: 8},
				{Name: "status", Width: 4},
				{Name: "total", Width: 8},
				{Name: "shipping_address", Width: 120},
			}},
		}},
		Workload: vpart.Workload{Transactions: []vpart.Transaction{
			{
				// Login touches only a narrow slice of Users, very often.
				Name: "Login",
				Queries: append(
					[]vpart.Query{vpart.NewRead("getCredentials", "Users",
						[]string{"id", "email", "password_hash"}, 1, 100)},
					vpart.NewUpdate("touchLastLogin", "Users",
						[]string{"id", "last_login"}, []string{"last_login"}, 1, 100)...),
			},
			{
				// Checkout reads the user's balance and writes an order row.
				Name: "Checkout",
				Queries: append(
					vpart.NewUpdate("chargeBalance", "Users",
						[]string{"id", "balance"}, []string{"balance"}, 1, 20),
					vpart.NewWrite("insertOrder", "Orders",
						[]string{"id", "user_id", "created_at", "status", "total", "shipping_address"}, 1, 20)),
			},
			{
				// The account page reads the wide profile columns, rarely.
				Name: "AccountPage",
				Queries: []vpart.Query{
					vpart.NewRead("getProfile", "Users",
						[]string{"id", "email", "full_name", "address", "balance"}, 1, 5),
					vpart.NewRead("listOrders", "Orders",
						[]string{"id", "user_id", "created_at", "status", "total"}, 10, 5),
				},
			},
		}},
	}
	if err := inst.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println(inst.Stats())

	// Baseline: everything on a single site.
	model, err := vpart.NewModel(inst, vpart.DefaultModelOptions())
	if err != nil {
		log.Fatal(err)
	}
	single := model.Evaluate(vpart.SingleSitePartitioning(model, 1))
	fmt.Printf("single-site cost (objective 4): %.0f bytes per workload execution\n\n", single.Objective)

	// Solvers plug in through a registry; vpart.Solvers() lists "portfolio",
	// "qp" and "sa" (plus anything registered via vpart.RegisterSolver).
	fmt.Printf("registered solvers: %v\n\n", vpart.Solvers())

	// Every solver reports progress as typed events rather than log lines:
	// new incumbents carry their cost, the QP solver also reports improving
	// lower bounds, and all events carry the elapsed wall-clock time.
	progress := func(e vpart.Event) {
		switch e.Kind {
		case vpart.EventIncumbent:
			fmt.Printf("  [%v] %s found incumbent with cost %.0f\n",
				e.Elapsed.Round(time.Millisecond), e.Solver, e.Cost)
		case vpart.EventBound:
			fmt.Printf("  [%v] %s proved lower bound %.0f\n",
				e.Elapsed.Round(time.Millisecond), e.Solver, e.Bound)
		}
	}

	// A cancelled context stops any solver promptly; here it just guards
	// against runaway solves.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var last *vpart.Solution
	for _, solver := range []string{"sa", "qp", "portfolio"} {
		sol, err := vpart.Solve(ctx, inst, vpart.Options{
			Sites:      2,
			Solver:     solver,
			SeedWithSA: true,
			Progress:   progress,
			// The portfolio races 4 SA seeds and the exact QP concurrently,
			// cancels the stragglers once a winner is accepted, and returns
			// the best incumbent. Other solvers ignore this field.
			Portfolio: vpart.PortfolioOptions{SASeeds: 4, QP: true},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s solver (winner: %s) ===\n", solver, sol.Solver)
		fmt.Printf("cost: %.0f bytes (%.1f%% below single site), runtime %v\n",
			sol.Cost.Objective, 100*(1-sol.Cost.Objective/single.Objective), sol.Runtime)
		fmt.Println(sol.Partitioning.Format(sol.Model))
		last = sol
	}

	// What-if analysis: edit a solution by hand through the incremental
	// Evaluator and watch the cost react, without re-running a solver. The
	// evaluator owns a private copy of the partitioning, prices every typed
	// move in O(terms touched) and journals it, so a bad edit is one Undo
	// away. This is the same engine the SA hot loop runs on.
	ev, err := vpart.NewEvaluator(last.Model, last.Partitioning)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== what-if: move AccountPage (and the columns it reads) to site 0 ===")
	// Apply prices moves against the balanced objective (6) — the value the
	// solvers minimise — so the demo decides and reports on that.
	fmt.Printf("current balanced objective (6): %.0f\n", ev.Cost().Balanced)
	txn, ok := last.Model.TxnIndex("AccountPage")
	if !ok {
		log.Fatal("AccountPage transaction not found")
	}
	delta := ev.Apply(vpart.MoveTxn{Txn: txn, Site: 0})
	for _, a := range last.Model.TxnReadAttrs(txn) {
		if !ev.Partitioning().AttrSites[a][0] {
			// Keep reads single-sited: replicate what AccountPage reads.
			delta += ev.Apply(vpart.AddReplica{Attr: a, Site: 0})
		}
	}
	fmt.Printf("balanced-objective delta of the edit: %+.0f\n", delta)
	if delta < 0 {
		ev.Commit()
		fmt.Printf("kept it: new balanced objective %.0f\n", ev.Cost().Balanced)
	} else {
		ev.Undo()
		fmt.Printf("worse — undone, balanced objective back to %.0f\n", ev.Cost().Balanced)
	}
}
