// Per-stage pipeline benchmarks (run with `go test -bench BenchmarkStages
// -benchmem`): one sub-benchmark per offline stage per paper program, via
// the shared runners in internal/bench. cmd/benchjson drives the same
// runners to emit the BENCH_<date>.json perf trajectory, so numbers here
// and numbers in the JSON are directly comparable.
package repro_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/constraints"
)

// stageSystems caches one preprocessed system per benchmark; the solve
// stages share it (no solver mutates a system after preprocessing).
var stageSystems = map[string]*constraints.System{}

func stageSystem(b *testing.B, name string) (*bench.Prepared, *constraints.System) {
	b.Helper()
	p := prepare(b, name)
	sys, ok := stageSystems[name]
	if !ok {
		var err error
		sys, err = bench.FreshSystem(p)
		if err != nil {
			b.Fatal(err)
		}
		stageSystems[name] = sys
	}
	return p, sys
}

var stagePrograms = append(append([]string(nil), table1Programs...), "racey")

func BenchmarkStages(b *testing.B) {
	b.Run("build", func(b *testing.B) {
		for _, name := range stagePrograms {
			b.Run(name, func(b *testing.B) { bench.StageBuild(prepare(b, name))(b) })
		}
	})
	b.Run("preprocess", func(b *testing.B) {
		for _, name := range stagePrograms {
			b.Run(name, func(b *testing.B) { bench.StagePreprocess(prepare(b, name))(b) })
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for _, name := range stagePrograms {
			b.Run(name, func(b *testing.B) {
				p, sys := stageSystem(b, name)
				bench.StageSequential(p, sys)(b)
			})
		}
	})
	b.Run("parsolve", func(b *testing.B) {
		for _, name := range stagePrograms {
			b.Run(name, func(b *testing.B) {
				p, sys := stageSystem(b, name)
				bench.StageParsolve(p, sys)(b)
			})
		}
	})
	b.Run("cnf", func(b *testing.B) {
		for _, name := range stagePrograms {
			b.Run(name, func(b *testing.B) {
				p, sys := stageSystem(b, name)
				bench.StageCNF(p, sys)(b)
			})
		}
	})
}
