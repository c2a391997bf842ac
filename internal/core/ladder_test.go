// Portfolio ladder tests over the evaluation programs. An external test
// package, because internal/bench (which holds the programs) imports core.
package core_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

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
// ends at the attempt that solved. The head starts are pinned — sim_race's
// far above its solve time, even under the race detector — so the trail
// does not depend on the machine's speed.
func TestPortfolioLadderTrail(t *testing.T) {
	for _, tc := range []struct {
		name      string
		headStart time.Duration
		want      string
	}{
		{"sim_race", time.Minute, "sequential solved"},
		{"dekker", 20 * time.Millisecond, "sequential interrupted, cnf solved"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer core.SetSeqHeadStart(tc.headStart)()
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
// depend on the number of cores: with the head start pinned above
// sim_race's solve time, the ladder returns the sequential search's
// minimal schedule at one core and at four.
func TestPortfolioIgnoresCoreCount(t *testing.T) {
	defer core.SetSeqHeadStart(time.Minute)()
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
