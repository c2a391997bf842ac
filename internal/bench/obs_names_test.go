package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestObsNamesStable runs the instrumented pipeline over every benchmark
// and pins the observability contract -metrics-json consumers rely on:
// the five pipeline stages appear as top-level spans, and every counter
// or gauge the run publishes carries a name from the stable list in
// internal/obs/names.go. A new metric must be added there (and to
// DESIGN.md) before it ships, so renames show up as test failures here
// instead of silent schema drift.
func TestObsNamesStable(t *testing.T) {
	// The artifact-cache metrics only appear on a cached run and the
	// lazy-CNF ones only where CNF runs, which the per-benchmark sweep
	// below (portfolio, no cache) does not guarantee — pin them in their
	// own subtest so a rename or a silent drop of either family fails
	// here.
	t.Run("lazy-and-cache-pins", func(t *testing.T) {
		t.Parallel()
		for _, name := range []string{
			"solver.cnf.lazy.rounds", "solver.cnf.lazy.lemmas",
			"core.cache.hit", "core.cache.miss",
			// Deep solver telemetry: refinement kinds, session reuse, and
			// the CDCL engine totals.
			"solver.cnf.addr.rounds", "solver.cnf.addr.lemmas",
			"solver.cnf.blocks.mapping",
			"solver.cnf.session.solves", "solver.cnf.session.reuse",
			"sat.solves", "sat.restarts", "sat.learnts",
			// Stage latency histograms, pipeline and benchjson flavors.
			"stage.record.ns", "stage.symexec.ns", "stage.preprocess.ns",
			"stage.solve.ns", "stage.replay.ns",
			"stage.solve.sequential.ns", "stage.solve.parallel.ns",
			"stage.solve.cnf.ns",
			"stage.bench.build.ns", "stage.bench.preprocess.ns",
			"stage.bench.sequential.ns", "stage.bench.parsolve.ns",
			"stage.bench.cnf.ns",
			// Daemon fleet metrics.
			"clapd.queue.depth", "clapd.workers.busy", "clapd.job.ns",
		} {
			if !obs.IsStable(name) {
				t.Errorf("%q missing from the stable-name list", name)
			}
		}
		b, ok := ByName("dekker")
		if !ok {
			t.Fatal("dekker benchmark missing")
		}
		cache, err := core.OpenDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		run := func() (counters, gauges map[string]int64) {
			p := preparedFor(t, b)
			tr := obs.NewTrace("bench")
			rep, err := core.Reproduce(p.Recording, core.ReproduceOptions{
				Solver: core.CNF,
				Cache:  cache,
				Obs:    tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Outcome.Reproduced {
				t.Fatal("bug not reproduced")
			}
			counters, gauges = tr.Reg().Snapshot()
			return counters, gauges
		}
		_, gauges := run()
		for _, name := range []string{
			"solver.cnf.lazy.rounds", "solver.cnf.lazy.lemmas",
			"solver.cnf.session.solves", "sat.solves",
		} {
			if _, ok := gauges[name]; !ok {
				t.Errorf("CNF run published no %q gauge", name)
			}
		}
		counters, _ := run()
		if counters["core.cache.hit"] == 0 {
			t.Error("second cached run published no core.cache.hit")
		}
	})
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			tr := obs.NewTrace("bench")
			prog, err := core.Compile(b.Source)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := core.Record(prog, core.RecordOptions{
				Model:     b.Model,
				Inputs:    b.Inputs,
				SeedLimit: b.SeedLimit,
				Obs:       tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			// The sweep checks names and stage spans, not a solver: it
			// runs the portfolio that clapd serves, which is much faster
			// than the sequential search on the mutual-exclusion programs.
			// TestEachBenchmarkReproduces covers the sequential solver.
			rep, err := core.Reproduce(rec, core.ReproduceOptions{Solver: core.Portfolio, Obs: tr})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Outcome.Reproduced {
				t.Fatal("bug not reproduced")
			}
			for _, stage := range []string{"record", "symexec", "preprocess", "solve", "replay"} {
				if tr.Root().Find(stage) == nil {
					t.Errorf("span %q missing from trace", stage)
				}
			}
			counters, gauges := tr.Reg().Snapshot()
			for name := range counters {
				if !obs.IsStable(name) {
					t.Errorf("counter %q not in the stable-name list", name)
				}
			}
			for name := range gauges {
				if !obs.IsStable(name) {
					t.Errorf("gauge %q not in the stable-name list", name)
				}
			}
			if len(counters)+len(gauges) == 0 {
				t.Error("instrumented run published no metrics")
			}
			s := tr.Reg().TakeSnapshot()
			for name := range s.Hists {
				if !obs.IsStable(name) {
					t.Errorf("histogram %q not in the stable-name list", name)
				}
			}
			for _, stage := range []string{"record", "symexec", "preprocess", "solve", "replay"} {
				if s.Hists["stage."+stage+".ns"].Count == 0 {
					t.Errorf("stage.%s.ns latency histogram is empty after a full run", stage)
				}
			}
		})
	}
}
