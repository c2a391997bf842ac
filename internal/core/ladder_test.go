// Portfolio ladder tests over the evaluation programs. An external test
// package, because internal/bench (which holds the programs) imports core.
package core_test

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/oracle"
	"repro/internal/schedule"
	"repro/internal/vm"
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

// TestPortfolioLadderTrail pins the ladder's attempt trail: an SC system
// the enumeration solves within its head start stops there, and a
// TSO/PSO one (dekker) starts at CNF. Either way the trail ends at the
// attempt that solved. sim_race's head start is pinned far above its
// solve time, even under the race detector, so the trail does not depend
// on the machine's speed.
func TestPortfolioLadderTrail(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string
	}{
		{"sim_race", "enumerate solved"},
		{"dekker", "cnf solved"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer core.SetHeadStart(time.Minute)()
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
		})
	}
}

// TestPortfolioRelaxedCNFFaultFails injects a CNF fault on a TSO
// recording, where CNF is the only step: the ladder ends at once with an
// error that wraps the fault.
func TestPortfolioRelaxedCNFFaultFails(t *testing.T) {
	rec := prepare(t, "dekker").Recording
	faultinject.Fail("solver.cnf")
	defer faultinject.Reset()
	rep, err := core.Reproduce(rec, core.ReproduceOptions{Solver: core.Portfolio, Deadline: time.Minute})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want an error wrapping the injected fault, got %v", err)
	}
	if got := trail(rep.Attempts); got != "cnf fault injected" {
		t.Fatalf("attempt trail: %s, want cnf fault injected", got)
	}
}

// TestPortfolioRelaxedOracleMinimum runs the product path on the TSO/PSO
// draws of oracle.Program from seeds 44–48, 24 trials each, shapes in
// turn: the ladder starts at CNF, and its schedule must have the fewest
// preemptions over every valid schedule of the recording's system.
func TestPortfolioRelaxedOracleMinimum(t *testing.T) {
	checked := 0
	for seed := int64(44); seed <= 48; seed++ {
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 24; trial++ {
			src, model := oracle.Program(r, oracle.Shapes[trial%len(oracle.Shapes)])
			if model == vm.SC {
				continue
			}
			prog, err := core.Compile(src)
			if err != nil {
				t.Fatalf("seed %d trial %d: %v\n%s", seed, trial, err, src)
			}
			rec, err := core.Record(prog, core.RecordOptions{Model: model, SeedLimit: 3000})
			if err != nil {
				continue // this variant never failed
			}
			sys, err := rec.Analyze()
			if err != nil {
				t.Fatalf("seed %d trial %d: %v\n%s", seed, trial, err, src)
			}
			sys.Preprocess()
			want := -1
			if !oracle.Enumerate(sys, 1<<20, func(_ []constraints.SAPRef, w *constraints.Witness) {
				if want < 0 || w.Preemptions < want {
					want = w.Preemptions
				}
			}) {
				t.Fatalf("seed %d trial %d: the oracle walk did not finish", seed, trial)
			}
			rep, err := core.Reproduce(rec, core.ReproduceOptions{Solver: core.Portfolio})
			if err != nil {
				t.Fatalf("seed %d trial %d: %v\n%s", seed, trial, err, src)
			}
			if got := trail(rep.Attempts); got != "cnf solved" {
				t.Errorf("seed %d trial %d: attempt trail %s, want cnf solved", seed, trial, got)
			}
			if rep.Solution.Preemptions != want {
				t.Errorf("seed %d trial %d: %d preemptions, the oracle minimum is %d\n%s", seed, trial, rep.Solution.Preemptions, want, src)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d TSO/PSO draws failed and were checked", checked)
	}
	t.Logf("%d TSO/PSO draws at the oracle minimum", checked)
}

// TestPortfolioIgnoresCoreCount checks that the portfolio's answer does not
// depend on the number of cores: with the head start pinned above
// sim_race's solve time, the ladder returns the enumeration's minimal
// schedule at one core and at four.
func TestPortfolioIgnoresCoreCount(t *testing.T) {
	defer core.SetHeadStart(time.Minute)()
	p := prepare(t, "sim_race")
	rec := p.Recording
	sys, err := rec.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sys.Preprocess()
	order, w, floor := schedule.Enumerate(sys, nil)
	if order == nil || w.Preemptions != floor {
		t.Fatalf("enumeration did not reach a minimal schedule (floor %d)", floor)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		rep, err := core.Reproduce(rec, core.ReproduceOptions{Solver: core.Portfolio})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if rep.Solution.Preemptions != floor {
			t.Errorf("GOMAXPROCS=%d: portfolio schedule has %d preemptions, the minimum is %d",
				procs, rep.Solution.Preemptions, floor)
		}
		if got := trail(rep.Attempts); got != "enumerate solved" {
			t.Errorf("GOMAXPROCS=%d: attempt trail: %s", procs, got)
		}
	}
}
