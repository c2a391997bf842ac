// Deadline, cancellation and portfolio behaviour of the pipeline entry
// points: no phase may hang past its budget, interrupted runs must return
// partial diagnostics, and injected solver failures must degrade to the
// next portfolio step.
package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cnfsolver"
	"repro/internal/faultinject"
	"repro/internal/solver"
	"repro/internal/vm"
)

// quietSrc never fails its assertion: a bug hunt on it runs until its seed
// budget or deadline expires.
const quietSrc = `
int x;
mutex m;
func worker() {
	lock(m);
	x = x + 1;
	unlock(m);
}
func main() {
	int h1 = spawn worker();
	int h2 = spawn worker();
	join(h1);
	join(h2);
	assert(x >= 0, "never fires");
}
`

const lostUpdateSrc = `
int c;
func worker() {
	int t = c;
	c = t + 1;
}
func main() {
	int h1 = spawn worker();
	int h2 = spawn worker();
	join(h1);
	join(h2);
	int v = c;
	assert(v == 2, "lost update");
}
`

func recordLostUpdate(t *testing.T) *Recording {
	t.Helper()
	prog, err := Compile(lostUpdateSrc)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Record(prog, RecordOptions{Model: vm.SC, SeedLimit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRecordNoFailureReportsLevels(t *testing.T) {
	prog, err := Compile(quietSrc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Record(prog, RecordOptions{Model: vm.SC, SeedLimit: 5})
	var nf *NoFailureError
	if !errors.As(err, &nf) {
		t.Fatalf("want *NoFailureError, got %v", err)
	}
	if nf.Interrupted {
		t.Fatal("an exhausted hunt is not an interrupted one")
	}
	if len(nf.Levels) != 4 {
		t.Fatalf("chaos ladder has 4 levels, reported %d", len(nf.Levels))
	}
	for _, l := range nf.Levels {
		if l.Seeds != 5 {
			t.Fatalf("level %d ran %d seeds, want 5: %v", l.Chaos, l.Seeds, err)
		}
	}
}

func TestRecordDeadlineInterrupts(t *testing.T) {
	prog, err := Compile(quietSrc)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = Record(prog, RecordOptions{
		Model:     vm.SC,
		SeedLimit: 1 << 40, // would run ~forever without the deadline
		Deadline:  100 * time.Millisecond,
	})
	elapsed := time.Since(start)
	var nf *NoFailureError
	if !errors.As(err, &nf) || !nf.Interrupted {
		t.Fatalf("want an interrupted *NoFailureError, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: hunt ran %v", elapsed)
	}
	if len(nf.Levels) == 0 || nf.Levels[0].Seeds == 0 {
		t.Fatalf("interrupted hunt reported no progress: %v", err)
	}
}

func TestRecordCtxCancelInterrupts(t *testing.T) {
	prog, err := Compile(quietSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Record(prog, RecordOptions{Model: vm.SC, SeedLimit: 1 << 40, Ctx: ctx})
	var nf *NoFailureError
	if !errors.As(err, &nf) || !nf.Interrupted {
		t.Fatalf("want an interrupted *NoFailureError, got %v", err)
	}
}

func TestReproduceDeadlineExpired(t *testing.T) {
	rec := recordLostUpdate(t)
	for _, kind := range []SolverKind{Parallel, CNF, Portfolio} {
		start := time.Now()
		rep, err := Reproduce(rec, ReproduceOptions{Solver: kind, Deadline: time.Nanosecond})
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("kind %d: expired deadline still ran %v", kind, elapsed)
		}
		if err == nil {
			t.Fatalf("kind %d: expired deadline produced no error", kind)
		}
		var intr *solver.Interrupted
		if !errors.As(err, &intr) {
			t.Fatalf("kind %d: want *solver.Interrupted in the chain, got %v", kind, err)
		}
		if rep == nil {
			t.Fatalf("kind %d: interrupted reproduce returned no partial diagnostics", kind)
		}
		if rep.System == nil || len(rep.Attempts) == 0 {
			t.Fatalf("kind %d: partial diagnostics incomplete: %+v", kind, rep)
		}
	}
}

func TestReproduceCtxCancelled(t *testing.T) {
	rec := recordLostUpdate(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Reproduce(rec, ReproduceOptions{Ctx: ctx})
	if err == nil {
		t.Fatal("cancelled context produced no error")
	}
	var intr *solver.Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("want *solver.Interrupted, got %v", err)
	}
	if rep == nil || len(rep.Attempts) == 0 {
		t.Fatal("cancelled reproduce returned no attempt trail")
	}
}

func TestReproduceCNFKind(t *testing.T) {
	rec := recordLostUpdate(t)
	rep, err := Reproduce(rec, ReproduceOptions{Solver: CNF})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Reproduced {
		t.Fatal("CNF solver did not reproduce the lost update")
	}
	if rep.CNFStats == nil {
		t.Fatal("CNF stats missing")
	}
	if len(rep.Attempts) != 1 || rep.Attempts[0].Solver != "cnf" || rep.Attempts[0].Outcome != "solved" {
		t.Fatalf("attempt trail wrong: %+v", rep.Attempts)
	}
}

func TestPortfolioFallsBackOnInjectedFailure(t *testing.T) {
	rec := recordLostUpdate(t)
	faultinject.Fail("solver.enumerate")
	defer faultinject.Reset()
	rep, err := Reproduce(rec, ReproduceOptions{Solver: Portfolio})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Reproduced {
		t.Fatal("portfolio did not reproduce via fallback")
	}
	if got := trailOf(rep.Attempts); got != "enumerate fault injected, cnf solved" {
		t.Fatalf("attempt trail: %s", got)
	}
}

// TestPortfolioAllStagesFail makes CNF fail after a head start that did
// not solve: the ladder ends there, with an error that names both steps
// and wraps CNF's failure, not an interrupt.
func TestPortfolioAllStagesFail(t *testing.T) {
	rec := recordLostUpdate(t)
	defer SetHeadStart(enumHeadStart)()
	for _, tc := range []struct {
		headStart time.Duration
		enumFault bool
		cnf       faultinject.Failure
		want      string
	}{
		{enumHeadStart, true, faultinject.Failure{}, "enumerate fault injected, cnf fault injected"},
		{time.Nanosecond, false, faultinject.Failure{Panic: "injected cnf panic"}, "enumerate interrupted, cnf panicked"},
	} {
		enumHeadStart = tc.headStart
		if tc.enumFault {
			faultinject.Fail("solver.enumerate")
		}
		faultinject.Enable("solver.cnf", tc.cnf)
		start := time.Now()
		rep, err := Reproduce(rec, ReproduceOptions{Solver: Portfolio, Deadline: time.Minute})
		faultinject.Reset()
		if err == nil {
			t.Fatal("all steps injected to fail, yet the portfolio succeeded")
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("the ladder ran on for %v after CNF failed", elapsed)
		}
		var intr *solver.Interrupted
		if errors.As(err, &intr) {
			t.Fatalf("no final step was interrupted, yet the error is typed as one: %v", err)
		}
		if tc.cnf.Panic == "" && !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("the error does not wrap CNF's injected fault: %v", err)
		}
		if !strings.Contains(err.Error(), "enumerate: ") || !strings.Contains(err.Error(), "cnf: ") {
			t.Fatalf("the error does not name both steps: %v", err)
		}
		if rep == nil {
			t.Fatal("failed portfolio returned no partial diagnostics")
		}
		if got := trailOf(rep.Attempts); got != tc.want {
			t.Fatalf("attempt trail: %s, want %s", got, tc.want)
		}
	}
}

// TestPortfolioStopsAtCNFUnsat re-analyses a TSO-only bug under SC, where
// no schedule exists. Once CNF proves that, the ladder ends with an error
// that wraps the proof.
func TestPortfolioStopsAtCNFUnsat(t *testing.T) {
	prog, err := Compile(dekkerTSOSrc)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Record(prog, RecordOptions{Model: vm.TSO, SeedLimit: 3000})
	if err != nil {
		t.Fatal(err)
	}
	rec.Model = vm.SC
	defer SetHeadStart(time.Nanosecond)()
	start := time.Now()
	rep, err := Reproduce(rec, ReproduceOptions{Solver: Portfolio, Deadline: time.Minute})
	elapsed := time.Since(start)
	var unsat *cnfsolver.Unsat
	if !errors.As(err, &unsat) {
		t.Fatalf("want an error wrapping *cnfsolver.Unsat, got %v", err)
	}
	if got := trailOf(rep.Attempts); got != "enumerate interrupted, cnf failed" {
		t.Fatalf("attempt trail: %s", got)
	}
	if elapsed > 2*time.Second {
		t.Errorf("the ladder took %v after the unsat proof", elapsed)
	}
}

// trailOf renders an attempt trail as "solver outcome" pairs.
func trailOf(attempts []SolverAttempt) string {
	parts := make([]string, len(attempts))
	for i, a := range attempts {
		parts[i] = a.Solver + " " + a.Outcome
	}
	return strings.Join(parts, ", ")
}
