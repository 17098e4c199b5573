// Decompose: generate a random instance whose access graph splits into four
// independent components, inspect the decomposition (reasonable-cuts
// grouping + component split), then solve it three ways and compare:
//
//  1. monolithic SA on the whole instance,
//  2. the "decompose" meta-solver (per-shard SA on a worker pool) selected
//     by name,
//  3. the same pipeline selected through Options.Preprocess, which wraps any
//     registered solver.
//
// The merged cost is exact: it is the original model's evaluation of the
// merged partitioning, and per-shard breakdowns add up to it because
// components share no cost term.
//
// Run with:
//
//	go run ./examples/decompose
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

	// A 4-component ClassA instance: 32 tables in 4 banks, every transaction
	// confined to one bank.
	inst, err := vpart.RandomInstance(vpart.MultiComponentClass(4, 32, 120, 10), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: %s\n\n", inst.Stats())

	// Inspect the decomposition directly: grouping first, then the component
	// split of the table–transaction access graph.
	d, err := vpart.DecomposeInstance(inst, true)
	if err != nil {
		log.Fatal(err)
	}
	orig, grouped := d.Grouping.Reduction()
	fmt.Printf("reasonable cuts: %d attributes -> %d groups\n", orig, grouped)
	fmt.Printf("access graph: %d independent component(s), %d orphan table(s)\n", d.NumShards(), len(d.OrphanTables))
	for i, c := range d.Components {
		fmt.Printf("  component %d: %d tables, %d attr groups, %d transactions\n",
			i, len(c.Tables), len(c.Attrs), len(c.Txns))
	}
	fmt.Println()

	// 1. Monolithic SA.
	monoStart := time.Now()
	mono, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 4, Solver: "sa", Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monolithic sa:        cost %8.0f   %6.1fms\n",
		mono.Cost.Objective, float64(time.Since(monoStart).Microseconds())/1000)

	// 2. The decompose meta-solver by name (portfolio on every shard by
	// default; here SA to keep the comparison apples-to-apples).
	decStart := time.Now()
	dec, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites:     4,
		Solver:    "decompose",
		Decompose: vpart.DecomposeOptions{Solver: "sa"},
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decompose(sa):        cost %8.0f   %6.1fms   %d shards\n",
		dec.Cost.Objective, float64(time.Since(decStart).Microseconds())/1000, len(dec.Shards))
	for _, sh := range dec.Shards {
		fmt.Printf("  shard %d: %3d attr groups, %2d txns  ->  objective %8.0f  (%v)\n",
			sh.Shard, sh.Attrs, sh.Txns, sh.Objective, sh.Runtime.Round(time.Millisecond))
	}

	// 3. The same pipeline through the Preprocess knob: any registered
	// solver gains the decomposition without knowing about it.
	pre, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites:      4,
		Solver:     "sa",
		Preprocess: vpart.PreprocessDecompose,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("preprocess=decompose: cost %8.0f   (solver %q)\n", pre.Cost.Objective, pre.Solver)

	// The merged cost is exact: re-evaluating the merged partitioning under
	// the original model reproduces it bit for bit.
	recheck, err := vpart.Evaluate(inst, vpart.DefaultModelOptions(), dec.Partitioning)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmerged cost check: Evaluate(merged) = %.0f, solver reported %.0f (exact: %v)\n",
		recheck.Objective, dec.Cost.Objective, recheck.Objective == dec.Cost.Objective)
}
