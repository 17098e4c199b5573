package engine

import (
	"context"
	"testing"

	"vpart/internal/core"
	"vpart/internal/sa"
	"vpart/internal/tpcc"
)

func benchSetup(b *testing.B, sites int) (*core.Model, *core.Partitioning) {
	b.Helper()
	m, err := core.NewModel(tpcc.Instance(), core.DefaultModelOptions())
	if err != nil {
		b.Fatal(err)
	}
	res, err := sa.Solve(context.Background(), m, sa.DefaultOptions(sites))
	if err != nil {
		b.Fatal(err)
	}
	return m, res.Partitioning
}

func BenchmarkRunTPCCSequential(b *testing.B) {
	m, p := benchSetup(b, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(context.Background(), m, p, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunTPCCManyRounds(b *testing.B) {
	m, p := benchSetup(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(context.Background(), m, p, Options{Rounds: 16}); err != nil {
			b.Fatal(err)
		}
	}
}
