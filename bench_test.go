// Benchmarks regenerating the paper's evaluation, one benchmark family per
// table (run with `go test -bench=. -benchmem`):
//
//   - BenchmarkTable1/* times the offline pipeline (symbolic execution +
//     constraint encoding + the product solver + verified replay) per
//     evaluation program — Table 1's time columns; the constraint sizes
//     are attached as custom metrics.
//   - BenchmarkTable2/* times one recorded execution under the three
//     recording settings (native, LEAP, CLAP) and reports the log sizes —
//     Table 2's overhead and space columns.
//   - BenchmarkHunt/* times the record phase's bug hunt (core.Record) per
//     evaluation program and reports the seeds it tried.
//   - BenchmarkTable3/* times parallel generate-and-validate solving vs
//     the sequential CNF session — Table 3.
//   - BenchmarkAblation/* check the design claims DESIGN.md calls out:
//     constraint size growth with #SAPs (§4.1's cubic bound), the effect
//     of the preemption bound on generation counts, and the run-length
//     path-log encoding.
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ballarus"
	"repro/internal/bench"
	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parsolve"
	"repro/internal/schedule"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/vm"
)

// prepared caches one recorded failure per benchmark so every bench
// iteration times only the phase under measurement.
var prepared = map[string]*bench.Prepared{}

func prepare(b *testing.B, name string) *bench.Prepared {
	b.Helper()
	if p, ok := prepared[name]; ok {
		return p
	}
	bm, ok := bench.ByName(name)
	if !ok {
		b.Fatalf("unknown benchmark %s", name)
	}
	p, err := bench.Prepare(bm)
	if err != nil {
		b.Fatal(err)
	}
	prepared[name] = p
	return p
}

// BenchmarkTable1 reproduces every paper benchmark on the product path
// (the solver portfolio) with a verifying replay.
func BenchmarkTable1(b *testing.B) {
	for _, bm := range bench.All() {
		name := bm.Name
		b.Run(name, func(b *testing.B) {
			p := prepare(b, name)
			b.ReportMetric(float64(p.Stats.SAPs), "SAPs")
			b.ReportMetric(float64(p.Stats.Clauses), "constraints")
			b.ReportMetric(float64(p.Stats.Variables), "variables")
			var cs int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := core.Reproduce(p.Recording, core.ReproduceOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Outcome.Reproduced {
					b.Fatal("bug not reproduced")
				}
				cs = rep.Solution.Preemptions
			}
			b.ReportMetric(float64(cs), "preemptions")
		})
	}
}

func BenchmarkTable2(b *testing.B) {
	for _, name := range bench.Table2Programs {
		bm, ok := bench.ByName(name)
		if !ok {
			b.Fatalf("unknown benchmark %s", name)
		}
		prog, err := core.Compile(bm.Source)
		if err != nil {
			b.Fatal(err)
		}
		inputs := bm.Table2Inputs
		if inputs == nil {
			inputs = bm.Inputs
		}
		// The Ball–Larus numbering is per program, not per run.
		paths, err := ballarus.ProgramPaths(prog)
		if err != nil {
			b.Fatal(err)
		}
		run := func(b *testing.B, withLeap, withClap bool) {
			var logBytes int
			for i := 0; i < b.N; i++ {
				conf := vm.Config{Model: bm.Model, Inputs: inputs, Sched: vm.NewRandomScheduler(12345)}
				var clapRec *vm.PathRecorder
				var leapRec *vm.LeapRecorder
				if withClap {
					clapRec = &vm.PathRecorder{Paths: paths, Log: &trace.PathLog{}}
					conf.PathRecorder = clapRec
				}
				if withLeap {
					leapRec = vm.NewLeapRecorder(prog)
					conf.LeapRecorder = leapRec
				}
				m, err := vm.New(prog, conf)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
				if withClap {
					logBytes = clapRec.Log.Size()
				}
				if withLeap {
					logBytes = leapRec.Log.Size()
				}
			}
			if withClap || withLeap {
				b.ReportMetric(float64(logBytes), "log-bytes")
			}
		}
		b.Run(name+"/native", func(b *testing.B) { run(b, false, false) })
		b.Run(name+"/leap", func(b *testing.B) { run(b, true, false) })
		b.Run(name+"/clap", func(b *testing.B) { run(b, false, true) })
	}
}

// BenchmarkHunt times core.Record's bug hunt on every evaluation program
// from a fixed hunt base with the program's own seed budget: the record
// phase a `clap bundle` upload and every e2ebench input start from.
func BenchmarkHunt(b *testing.B) {
	for _, bm := range bench.All() {
		prog, err := core.Compile(bm.Source)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bm.Name, func(b *testing.B) {
			var seeds int64
			for i := 0; i < b.N; i++ {
				tr := obs.NewTrace("hunt")
				if _, err := core.Record(prog, core.RecordOptions{
					Model: bm.Model, Inputs: bm.Inputs, Seed: 1 << 20, SeedLimit: bm.SeedLimit, Obs: tr,
				}); err != nil {
					b.Fatal(err)
				}
				seeds = tr.Reg().Get("record.seeds")
			}
			b.ReportMetric(float64(seeds), "seeds/op")
		})
	}
}

// table3Programs: parallel-vs-sequential comparison (the CNF session is
// the sequential side) on the programs whose bugs the bounded generator
// can reach. The relaxed trio
// (bakery/dekker/peterson) needs more preemptions than the bound sweep
// explores — the paper's negative result, shown by `clapbench -table 3`
// and asserted in the bench package's tests.
var table3Programs = []string{"sim_race", "pbzip2", "aget", "bbuf", "swarm", "pfscan", "apache"}

func BenchmarkTable3(b *testing.B) {
	for _, name := range table3Programs {
		name := name
		b.Run(name+"/parallel", func(b *testing.B) {
			p := prepare(b, name)
			var gen int64
			for i := 0; i < b.N; i++ {
				res, err := parsolve.Solve(p.System, parsolve.Options{
					Workers: 8, MaxBound: p.Bench.ParallelBound,
					Deadline: 60 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Found() {
					b.Fatal("no schedule found")
				}
				gen = res.Generated
			}
			b.ReportMetric(float64(gen), "generated")
		})
		b.Run(name+"/cnf", func(b *testing.B) {
			p := prepare(b, name)
			for i := 0; i < b.N; i++ {
				if _, _, err := cnfsolver.NewSession(p.System, cnfsolver.Options{}).SolveMinimal(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationConstraintGrowth checks §4.1's size analysis: constraint
// count grows polynomially (≈cubically in the worst case) with the number
// of shared accesses. The workload scales the aget benchmark's chunk count.
func BenchmarkAblationConstraintGrowth(b *testing.B) {
	for _, n := range []int64{4, 8, 16} {
		b.Run(fmt.Sprintf("chunks-%d", n), func(b *testing.B) {
			bm, _ := bench.ByName("aget")
			bm.Inputs = []int64{n}
			var stats constraints.Stats
			for i := 0; i < b.N; i++ {
				p, err := bench.Prepare(bm)
				if err != nil {
					b.Fatal(err)
				}
				stats = p.Stats
			}
			b.ReportMetric(float64(stats.SAPs), "SAPs")
			b.ReportMetric(float64(stats.Clauses), "constraints")
		})
	}
}

// BenchmarkAblationPreemptionBound measures how the candidate-schedule
// space grows with the preemption bound (the paper's polynomial-vs-
// exponential argument for preemption bounding).
func BenchmarkAblationPreemptionBound(b *testing.B) {
	p := prepare(b, "sim_race")
	for c := 0; c <= 2; c++ {
		c := c
		b.Run(fmt.Sprintf("bound-%d", c), func(b *testing.B) {
			var generated int
			for i := 0; i < b.N; i++ {
				gen := schedule.NewGenerator(p.System, schedule.Options{
					RespectHardEdges: true, MaxSchedules: 500_000,
				})
				res := gen.Generate(c, func(order []constraints.SAPRef, pre int) bool { return true })
				generated = res.Generated
			}
			b.ReportMetric(float64(generated), "schedules")
		})
	}
}

// BenchmarkAblationSyncOrderRecording measures the paper's §6.4 extension:
// pinning the recorded synchronization order adds hard edges that shrink
// the candidate-schedule space, at the price of synchronized recording.
// The metric of interest is the generated-candidate count needed before a
// valid schedule appears, with and without the pinned order.
func BenchmarkAblationSyncOrderRecording(b *testing.B) {
	prog, err := core.Compile(`
int x;
int y;
mutex m;
func worker(v) {
	lock(m);
	int t = x;
	x = t + v;
	unlock(m);
	int u = y;
	y = u + v;
}
func main() {
	int h1 = spawn worker(1);
	int h2 = spawn worker(2);
	join(h1);
	join(h2);
	int fy = y;
	assert(fy == 3, "y updates lost");
}
`)
	if err != nil {
		b.Fatal(err)
	}
	// Record one failing run with the sync recorder attached.
	record := func() (*vm.PathRecorder, *vm.SyncOrderRecorder, *vm.Result) {
		for seed := int64(0); seed < 4000; seed++ {
			rec, err := vm.NewPathRecorder(prog)
			if err != nil {
				b.Fatal(err)
			}
			syncRec := vm.NewSyncOrderRecorder()
			m, err := vm.New(prog, vm.Config{
				Sched: vm.NewRandomScheduler(seed), PathRecorder: rec, SyncRecorder: syncRec,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := m.Run()
			if err != nil {
				b.Fatal(err)
			}
			if res.Failure != nil && res.Failure.Kind == vm.FailAssert {
				return rec, syncRec, res
			}
		}
		b.Fatal("no failing seed")
		return nil, nil, nil
	}
	rec, syncRec, res := record()
	an, err := symexec.Analyze(prog, rec.Paths, rec.Log, symexec.Options{
		Failure: symexec.FailureSpec{Thread: res.Failure.Thread, Site: res.Failure.Site},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, pinned := range []bool{false, true} {
		name := "plain"
		if pinned {
			name = "pinned"
		}
		b.Run(name, func(b *testing.B) {
			var sys *constraints.System
			if pinned {
				sys, err = constraints.BuildWithSyncOrder(an, vm.SC, syncRec.Log)
			} else {
				sys, err = constraints.Build(an, vm.SC)
			}
			if err != nil {
				b.Fatal(err)
			}
			var generated int64
			for i := 0; i < b.N; i++ {
				res, err := parsolve.Solve(sys, parsolve.Options{Workers: 4})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Found() {
					b.Fatal("no schedule found")
				}
				generated = res.Generated
			}
			b.ReportMetric(float64(generated), "generated")
		})
	}
}

// BenchmarkAblationLogEncoding isolates the run-length path-log encoding:
// loop-heavy programs compress dramatically, which is where CLAP's space
// win over LEAP comes from.
func BenchmarkAblationLogEncoding(b *testing.B) {
	bm, _ := bench.ByName("racey")
	bm.Inputs = []int64{120, 6}
	prog, err := core.Compile(bm.Source)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rec, err := vm.NewPathRecorder(prog)
		if err != nil {
			b.Fatal(err)
		}
		m, err := vm.New(prog, vm.Config{Model: vm.SC, Inputs: bm.Inputs, Sched: vm.NewRandomScheduler(1), PathRecorder: rec})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rec.Log.Size()), "encoded-bytes")
		b.ReportMetric(float64(rec.Log.EventCount()), "events")
	}
}
