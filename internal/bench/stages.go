// Per-stage benchmark runners over the paper's evaluation programs. Each
// runner times exactly one offline-pipeline stage — constraint-system
// build, preprocessing, sequential solve, parallel generate-and-validate,
// CNF solve — against a prepared recording. They are shared between the
// repo-root `go test -bench BenchmarkStages` benchmarks and cmd/benchjson,
// which drives them through testing.Benchmark to emit the machine-readable
// BENCH_<date>.json perf trajectory; both paths therefore measure the same
// code the same way.
package bench

import (
	"testing"
	"time"

	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/parsolve"
	"repro/internal/solver"
)

// observeLat feeds one timed iteration's wall time into the stage's
// latency histogram. No-op when the caller did not attach a registry
// (p.Lat nil): the obs handles are nil-safe all the way down.
func observeLat(p *Prepared, stage string, start time.Time) {
	p.Lat.Hist("stage.bench." + stage + ".ns").Observe(int64(time.Since(start)))
}

// StageDeadline bounds each measured solve so a regression shows up as a
// skipped/interrupted stage instead of a hung benchmark run.
const StageDeadline = 60 * time.Second

// FreshSystem builds a preprocessed constraint system from the prepared
// recording. Stage runners take their own system rather than sharing
// p.System because Preprocess mutates the system in place (candidate
// pruning) and the Table benchmarks measure the un-preprocessed build.
func FreshSystem(p *Prepared) (*constraints.System, error) {
	sys, err := p.Recording.Analyze()
	if err != nil {
		return nil, err
	}
	sys.Preprocess()
	return sys, nil
}

// StageBuild times the constraint-system build (symbolic execution of the
// decoded paths plus constraint encoding).
func StageBuild(p *Prepared) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if _, err := p.Recording.Analyze(); err != nil {
				b.Fatal(err)
			}
			observeLat(p, "build", t0)
		}
	}
}

// StagePreprocess times the preprocessing pass alone: each iteration
// rebuilds the system off the clock, then times Preprocess on it. The last
// iteration's pruning counters are reported under their stable dotted
// names (see internal/obs/names.go) so benchjson carries them into the
// perf trajectory.
func StagePreprocess(p *Prepared) func(*testing.B) {
	return func(b *testing.B) {
		var pre *constraints.PreStats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys, err := p.Recording.Analyze()
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			t0 := time.Now()
			pre = sys.Preprocess()
			observeLat(p, "preprocess", t0)
		}
		b.ReportMetric(float64(pre.CandsBefore), "preprocess.cands.before")
		b.ReportMetric(float64(pre.CandsAfter), "preprocess.cands.after")
		b.ReportMetric(float64(pre.PrunedOrder), "preprocess.pruned.order")
		b.ReportMetric(float64(pre.PrunedShadowed), "preprocess.pruned.shadowed")
		b.ReportMetric(float64(pre.PrunedLock), "preprocess.pruned.lock")
		b.ReportMetric(float64(pre.PrunedMutex), "preprocess.pruned.mutex")
	}
}

// StageSequential times the sequential decision-procedure solve and
// reports the last iteration's search counters.
func StageSequential(p *Prepared, sys *constraints.System) func(*testing.B) {
	return func(b *testing.B) {
		bound := p.Bench.MaxPreemptions
		if bound == 0 {
			bound = -1
		}
		var st *solver.Stats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			_, stats, err := solver.Solve(sys, solver.Options{
				MaxPreemptions: bound, Deadline: StageDeadline,
			})
			if err != nil {
				b.Fatal(err)
			}
			observeLat(p, "sequential", t0)
			st = stats
		}
		b.ReportMetric(float64(st.Decisions), "solver.seq.decisions")
		b.ReportMetric(float64(st.Backtracks), "solver.seq.backtracks")
	}
}

// StageParsolve times the parallel generate-and-validate solve and reports
// the candidate counts (generated, validated, valid). Benchmarks whose bug
// the bounded generator cannot reach — the relaxed-model trio, the paper's
// Table 3 negative result — are skipped.
func StageParsolve(p *Prepared, sys *constraints.System) func(*testing.B) {
	return func(b *testing.B) {
		var res *parsolve.Result
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			r, err := parsolve.Solve(sys, parsolve.Options{
				Workers: 8, MaxBound: p.Bench.ParallelBound,
				Deadline: StageDeadline,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !r.Found() {
				b.Skipf("bug unreachable within bound %d (generated %d candidates)",
					p.Bench.ParallelBound, r.Generated)
			}
			observeLat(p, "parsolve", t0)
			res = r
		}
		b.ReportMetric(float64(res.Generated), "solver.par.generated")
		b.ReportMetric(float64(res.Validated), "solver.par.validated")
		b.ReportMetric(float64(res.Valid), "solver.par.valid")
	}
}

// StageCNF times the CNF (CDCL + theory refinement) solve and reports the
// last iteration's encoding and search counters. Systems whose cubic
// encoding exceeds the solver's size limit are skipped.
func StageCNF(p *Prepared, sys *constraints.System) func(*testing.B) {
	return func(b *testing.B) {
		var st *cnfsolver.Stats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			_, stats, err := cnfsolver.Solve(sys, cnfsolver.Options{
				Deadline: StageDeadline,
			})
			if err != nil {
				b.Skipf("cnf stage unavailable: %v", err)
			}
			observeLat(p, "cnf", t0)
			st = stats
		}
		b.ReportMetric(float64(st.BoolVars), "solver.cnf.boolvars")
		b.ReportMetric(float64(st.Clauses), "solver.cnf.clauses")
		b.ReportMetric(float64(st.TheoryRounds), "solver.cnf.rounds")
		b.ReportMetric(float64(st.LazyRounds), "solver.cnf.lazy.rounds")
		b.ReportMetric(float64(st.LazyLemmas), "solver.cnf.lazy.lemmas")
		b.ReportMetric(float64(st.SATConflicts), "solver.cnf.sat.conflicts")
	}
}
