// Portfolio ladder tests over the evaluation programs. An external test
// package, because internal/bench (which holds the programs) imports core.
package core_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

func prepare(t *testing.T, name string) *bench.Prepared {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("benchmark %s missing", name)
	}
	p, err := bench.Prepare(b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func trail(attempts []core.SolverAttempt) string {
	parts := make([]string, len(attempts))
	for i, a := range attempts {
		parts[i] = a.Solver + " " + a.Outcome
	}
	return strings.Join(parts, ", ")
}

// TestPortfolioLadderTrail pins the ladder's attempt trail: a system the
// sequential search solves within its head start stops there, and one
// that outlasts it (dekker's spin loops) goes to CNF. Either way the trail
// ends at the attempt that solved.
func TestPortfolioLadderTrail(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"sim_race", "sequential solved"},
		{"dekker", "sequential interrupted, cnf solved"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := core.Reproduce(prepare(t, tc.name).Recording, core.ReproduceOptions{Solver: core.Portfolio})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Outcome.Reproduced {
				t.Fatal("portfolio did not reproduce")
			}
			if got := trail(rep.Attempts); got != tc.want {
				t.Fatalf("attempt trail: %s, want %s", got, tc.want)
			}
			if rep.SeqStats == nil {
				t.Fatal("sequential stats missing from the report")
			}
		})
	}
}

// TestPortfolioIgnoresCoreCount checks that the portfolio's answer does not
// depend on the number of cores. On sim_race CNF would finish first on an
// idle core with several more preemptions than the sequential search's
// minimal schedule, so any race between the two shows up here.
func TestPortfolioIgnoresCoreCount(t *testing.T) {
	rec := prepare(t, "sim_race").Recording
	seq, err := core.Reproduce(rec, core.ReproduceOptions{Solver: core.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		rep, err := core.Reproduce(rec, core.ReproduceOptions{Solver: core.Portfolio})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if rep.Solution.Preemptions != seq.Solution.Preemptions {
			t.Errorf("GOMAXPROCS=%d: portfolio schedule has %d preemptions, sequential %d",
				procs, rep.Solution.Preemptions, seq.Solution.Preemptions)
		}
		if got := trail(rep.Attempts); got != "sequential solved" {
			t.Errorf("GOMAXPROCS=%d: attempt trail: %s", procs, got)
		}
	}
}
