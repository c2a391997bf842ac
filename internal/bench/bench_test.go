package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
)

func TestAllBenchmarksCompile(t *testing.T) {
	for _, b := range All() {
		if _, err := core.Compile(b.Source); err != nil {
			t.Errorf("%s does not compile: %v", b.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("pbzip2"); !ok {
		t.Error("pbzip2 missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown name must not resolve")
	}
	if len(All()) != 11 {
		t.Errorf("benchmarks = %d, want 11 (the paper's Table 1)", len(All()))
	}
}

// TestEachBenchmarkTriggers checks the record phase finds the bug for
// every benchmark within its seed budget.
func TestEachBenchmarkTriggers(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := core.Compile(b.Source)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := core.Record(prog, core.RecordOptions{
				Model:     b.Model,
				Inputs:    b.Inputs,
				SeedLimit: b.SeedLimit,
			})
			if err != nil {
				t.Fatalf("bug never triggered: %v", err)
			}
			if rec.Failure.Kind != vm.FailAssert {
				t.Fatalf("failure kind = %v", rec.Failure.Kind)
			}
			t.Logf("%s: seed %d, threads %d, insts %d, SAPs %d, log %dB",
				b.Name, rec.Seed, rec.Run.Threads, rec.Run.Instructions,
				rec.Run.VisibleEvents, rec.LogSize())
		})
	}
}

// TestEachBenchmarkReproduces is the paper's headline Table 1 claim: CLAP
// reproduces every evaluated bug, with a verified replay, on the product
// path (the portfolio, which clapd serves).
func TestEachBenchmarkReproduces(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p := preparedFor(t, b)
			rep, err := core.Reproduce(p.Recording, core.ReproduceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Outcome.Reproduced {
				t.Fatal("bug not reproduced")
			}
			t.Logf("%s: SAPs %d, constraints %d, vars %d, cs %d, solve %.3fs",
				b.Name, rep.Stats.SAPs, rep.Stats.Clauses, rep.Stats.Variables,
				rep.Solution.Preemptions, rep.SolveTime().Seconds())
		})
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	rows := Table2([]string{"sim_race", "pfscan"}, 3)
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Program, r.Err)
		}
		if r.ClapBytes <= 0 || r.LeapBytes <= 0 {
			t.Errorf("%s: log sizes not measured", r.Program)
		}
	}
}

func TestFormatters(t *testing.T) {
	var sb strings.Builder
	FormatTable1(&sb, []Table1Row{{Program: "x", Success: true}, {Program: "y", Err: "boom"}})
	FormatTable2(&sb, []Table2Row{{Program: "x"}, {Program: "y", Err: "boom"}})
	FormatTable3(&sb, []Table3Row{{Program: "x", Found: true}, {Program: "y", Err: "boom"}})
	out := sb.String()
	for _, want := range []string{"#Constraints", "LEAP", "#gen", "boom"} {
		if !strings.Contains(out, want) {
			t.Errorf("format output missing %q", want)
		}
	}
}

func TestWorstCaseLog10(t *testing.T) {
	b, _ := ByName("sim_race")
	p := preparedFor(t, b)
	lg := worstCaseLog10(p.System)
	if lg <= 1 {
		t.Errorf("worst-case schedules log10 = %f, expected > 1", lg)
	}
}

func TestLocOf(t *testing.T) {
	if locOf("a\n\nb\n") != 2 {
		t.Error("locOf miscounts")
	}
}
