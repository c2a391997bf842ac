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
	for _, kind := range []SolverKind{Sequential, Parallel, CNF, Portfolio} {
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
	rep, err := Reproduce(rec, ReproduceOptions{Solver: Sequential, Ctx: ctx})
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
	faultinject.Fail("solver.sequential")
	defer faultinject.Reset()
	rep, err := Reproduce(rec, ReproduceOptions{Solver: Portfolio})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Reproduced {
		t.Fatal("portfolio did not reproduce via fallback")
	}
	if got := trailOf(rep.Attempts); got != "sequential fault injected, cnf solved" {
		t.Fatalf("attempt trail: %s", got)
	}
}

func TestPortfolioAllStagesFail(t *testing.T) {
	rec := recordLostUpdate(t)
	defer func(h time.Duration) { seqHeadStart = h }(seqHeadStart)
	for _, tc := range []struct {
		headStart time.Duration
		seqFault  faultinject.Failure
		want      string
	}{
		// A head start that ended for a reason other than its budget is
		// not resumed after CNF fails.
		{seqHeadStart, faultinject.Failure{}, "sequential fault injected, cnf fault injected"},
		// A head start that ran out is resumed; the resumed step's
		// failure supersedes the head start's interrupt.
		{time.Nanosecond, faultinject.Failure{After: 1}, "sequential interrupted, cnf fault injected, sequential fault injected"},
	} {
		seqHeadStart = tc.headStart
		faultinject.Enable("solver.sequential", tc.seqFault)
		faultinject.Fail("solver.cnf")
		rep, err := Reproduce(rec, ReproduceOptions{Solver: Portfolio, Deadline: time.Minute})
		faultinject.Reset()
		if err == nil {
			t.Fatal("all steps injected to fail, yet the portfolio succeeded")
		}
		var intr *solver.Interrupted
		if errors.As(err, &intr) {
			t.Fatalf("no final step was interrupted, yet the error is typed as one: %v", err)
		}
		if rep == nil {
			t.Fatal("failed portfolio returned no partial diagnostics")
		}
		if got := trailOf(rep.Attempts); got != tc.want {
			t.Fatalf("attempt trail: %s, want %s", got, tc.want)
		}
	}
}

// TestPortfolioResumesSequential drives the ladder's third step: the
// sequential head start runs out, CNF fails before the deadline, and the
// sequential search runs again with the remaining budget and solves.
func TestPortfolioResumesSequential(t *testing.T) {
	rec := recordLostUpdate(t)
	defer func(h time.Duration) { seqHeadStart = h }(seqHeadStart)
	seqHeadStart = time.Nanosecond
	faultinject.Fail("solver.cnf")
	defer faultinject.Reset()
	rep, err := Reproduce(rec, ReproduceOptions{Solver: Portfolio, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Reproduced {
		t.Fatal("resumed sequential step did not reproduce")
	}
	if got := trailOf(rep.Attempts); got != "sequential interrupted, cnf fault injected, sequential solved" {
		t.Fatalf("attempt trail: %s", got)
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

func TestRunPortfolioDirect(t *testing.T) {
	rec := recordLostUpdate(t)
	sys, err := rec.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sol, attempts, err := RunPortfolio(sys, ReproduceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol == nil || len(attempts) == 0 {
		t.Fatalf("no solution or trail: %v %v", sol, attempts)
	}
	solved := false
	for _, a := range attempts {
		if a.Outcome == "solved" {
			solved = true
		}
	}
	if !solved {
		t.Fatalf("trail: %v", attempts)
	}
}
