package solver

import (
	"strings"
	"testing"

	"repro/internal/constraints"
	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/symexec"
	"repro/internal/vm"
)

// buildFailingSystem records src until an assertion fails and builds the
// constraint system under the given model.
func buildFailingSystem(t *testing.T, src string, model vm.MemModel, maxSeed int64) *constraints.System {
	t.Helper()
	prog, err := ir.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	esc := escape.Analyze(prog)
	for seed := int64(0); seed < maxSeed; seed++ {
		rec, err := vm.NewPathRecorder(prog)
		if err != nil {
			t.Fatal(err)
		}
		machine, err := vm.New(prog, vm.Config{
			Model: model, Sched: vm.NewRandomScheduler(seed),
			Shared: esc.Shared, PathRecorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := machine.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Failure == nil || res.Failure.Kind != vm.FailAssert {
			continue
		}
		an, err := symexec.Analyze(prog, rec.Paths, rec.Log, symexec.Options{
			Shared:  esc.Shared,
			Failure: symexec.FailureSpec{Thread: res.Failure.Thread, Site: res.Failure.Site},
		})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := constraints.Build(an, model)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	t.Fatalf("no failing seed in %d tries", maxSeed)
	return nil
}

const figure2SC = `
int x;
int y;
func t1() {
	int r1 = x;
	x = r1 + 1;
	int r2 = y;
	if (r2 > 0) {
		int r3 = x;
		assert(r3 > 0, "assert1");
	}
}
func main() {
	int h;
	h = spawn t1();
	x = 2;
	x = x - 3;
	y = 1;
	join(h);
}
`

func TestSolveFigure2Minimal(t *testing.T) {
	sys := buildFailingSystem(t, figure2SC, vm.SC, 3000)
	sol, stats, err := Solve(sys, Options{MaxPreemptions: -1})
	if err != nil {
		t.Fatalf("solve: %v (stats %+v)", err, stats)
	}
	// The solution must be a genuine model: re-validate independently.
	w, err := sys.ValidateSchedule(sol.Order)
	if err != nil {
		t.Fatalf("solution does not validate: %v", err)
	}
	if w.Preemptions != sol.Preemptions {
		t.Errorf("preemptions mismatch: %d vs %d", w.Preemptions, sol.Preemptions)
	}
	if sol.Preemptions > 3 {
		t.Errorf("minimal solution has %d preemptions, expected <= 3", sol.Preemptions)
	}
	if stats.Decisions == 0 && stats.Validations == 0 {
		t.Error("stats not collected")
	}
}

// dekkerTSOSrc is Dekker's algorithm with the fences elided: correct under
// SC, broken under TSO where the flag stores may pass the flag loads. Its
// failures need genuinely preemptive schedules (no 0-preemption solution),
// which makes it the subject for bound-sweep and rescue-pass tests.
const dekkerTSOSrc = `
int flag0;
int flag1;
int incrit;
int bad;
func t0() {
	flag0 = 1;
	if (flag1 == 0) {
		incrit = incrit + 1;
		if (incrit != 1) { bad = 1; }
		incrit = incrit - 1;
	}
}
func t1() {
	flag1 = 1;
	if (flag0 == 0) {
		incrit = incrit + 1;
		if (incrit != 1) { bad = 1; }
		incrit = incrit - 1;
	}
}
func main() {
	int h0;
	int h1;
	h0 = spawn t0();
	h1 = spawn t1();
	join(h0);
	join(h1);
	int b = bad;
	assert(b == 0, "mutual exclusion violated");
}
`

// setBudgets overrides the search budgets for one test and restores them
// when it ends.
func setBudgets(t *testing.T, schedules, escalate int, decisions int64) {
	oldS, oldE, oldD := genScheduleBudget, genEscalateBudget, boundDecisionBudget
	t.Cleanup(func() { genScheduleBudget, genEscalateBudget, boundDecisionBudget = oldS, oldE, oldD })
	genScheduleBudget, genEscalateBudget, boundDecisionBudget = schedules, escalate, decisions
}

// TestGenEscalationRescue pins the minimal-mode rescue pass: with the
// first-pass enumeration budget and the per-bound mapping budget both
// starved, the sweep alone fails, and only the escalated re-enumeration of
// the capped low bounds can find the schedule. Disabling escalation must
// turn the same solve unsatisfiable.
func TestGenEscalationRescue(t *testing.T) {
	sys := buildFailingSystem(t, dekkerTSOSrc, vm.TSO, 3000)
	setBudgets(t, 1, genEscalateBudget, 1)
	starved := Options{MaxPreemptions: -1}
	sol, stats, err := Solve(sys, starved)
	if err != nil {
		t.Fatalf("rescue pass did not recover: %v (stats %+v)", err, stats)
	}
	if _, err := sys.ValidateSchedule(sol.Order); err != nil {
		t.Fatalf("rescued solution does not validate: %v", err)
	}
	genEscalateBudget = -1
	if _, _, err := Solve(sys, starved); err == nil {
		t.Fatal("starved solve without escalation should be unsatisfiable")
	} else if _, ok := err.(*Unsat); !ok {
		t.Fatalf("expected *Unsat, got %v", err)
	}
}

// TestRescueBudgetExhaustionNotUnsat pins the rescue pass's verdict
// honesty: when even the escalated enumeration overflows its budget, the
// low bounds are still undecided and the solve must NOT report the
// generic Unsat — that would misreport budget exhaustion as proved
// unsatisfiability. (The result used to be dropped on the floor with
// `sol, _ := tryGenerate(...)`.) The same system under a real escalation
// budget is genuinely unsatisfiable, which pins the contrast.
func TestRescueBudgetExhaustionNotUnsat(t *testing.T) {
	sys := buildFailingSystem(t, dekkerTSOSrc, vm.TSO, 3000)
	// The SC encoding of the TSO-only bug is unsatisfiable — but a starved
	// solve may not say so.
	sysSC, err := constraints.Build(sys.An, vm.SC)
	if err != nil {
		t.Fatal(err)
	}
	defaultEscalate := genEscalateBudget
	setBudgets(t, 1, 1, 1)
	starved := Options{MaxPreemptions: -1}
	_, _, err = Solve(sysSC, starved)
	if err == nil {
		t.Fatal("starved solve of an unsatisfiable system returned a solution")
	}
	if _, ok := err.(*Unsat); ok {
		t.Fatalf("budget exhaustion misreported as Unsat: %v", err)
	}
	if !strings.Contains(err.Error(), "undecided") {
		t.Fatalf("exhaustion error should say the bounds are undecided: %v", err)
	}
	// Control: with the default escalation budget the enumeration is
	// exhaustive at every capped bound and the verdict is a true Unsat.
	genEscalateBudget = defaultEscalate
	if _, _, err := Solve(sysSC, starved); err == nil {
		t.Fatal("unsatisfiable system solved")
	} else if _, ok := err.(*Unsat); !ok {
		t.Fatalf("expected *Unsat under the full escalation budget, got %v", err)
	}
}

func TestSolveLockedProgram(t *testing.T) {
	src := `
int c;
mutex m;
func worker() {
	lock(m);
	int t = c;
	c = t + 1;
	unlock(m);
}
func main() {
	int h1;
	int h2;
	h1 = spawn worker();
	h2 = spawn worker();
	lock(m);
	int t = c;
	c = t + 1;
	unlock(m);
	join(h1);
	join(h2);
	int v = c;
	assert(v != 3, "all three increments landed");
}
`
	sys := buildFailingSystem(t, src, vm.SC, 2000)
	sol, _, err := Solve(sys, Options{MaxPreemptions: -1})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if _, err := sys.ValidateSchedule(sol.Order); err != nil {
		t.Fatalf("solution does not validate: %v", err)
	}
}

func TestSolveCondVarProgram(t *testing.T) {
	src := `
int stage;
mutex m;
cond c;
func waiter() {
	lock(m);
	while (stage == 0) {
		wait(c, m);
	}
	int s = stage;
	unlock(m);
	assert(s == 2, "stage jumped");
}
func main() {
	int h;
	h = spawn waiter();
	yield();
	lock(m);
	stage = 1;
	signal(c);
	unlock(m);
	join(h);
}
`
	var sys *constraints.System
	for seed := int64(0); seed < 800 && sys == nil; seed++ {
		func() {
			defer func() { recover() }()
			sys = buildFailingSystemSeed(t, src, vm.SC, seed)
		}()
	}
	if sys == nil {
		t.Skip("no failing interleaving found")
	}
	sol, _, err := Solve(sys, Options{MaxPreemptions: -1})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if _, err := sys.ValidateSchedule(sol.Order); err != nil {
		t.Fatalf("solution does not validate: %v", err)
	}
}

// buildFailingSystemSeed tries exactly one seed; returns nil via panic
// recovery in the caller when it did not fail. (Kept simple on purpose.)
func buildFailingSystemSeed(t *testing.T, src string, model vm.MemModel, seed int64) *constraints.System {
	t.Helper()
	prog, err := ir.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	esc := escape.Analyze(prog)
	rec, err := vm.NewPathRecorder(prog)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := vm.New(prog, vm.Config{
		Model: model, Sched: vm.NewRandomScheduler(seed),
		Shared: esc.Shared, PathRecorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := machine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil || res.Failure.Kind != vm.FailAssert {
		panic("no failure")
	}
	an, err := symexec.Analyze(prog, rec.Paths, rec.Log, symexec.Options{
		Shared:  esc.Shared,
		Failure: symexec.FailureSpec{Thread: res.Failure.Thread, Site: res.Failure.Site},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := constraints.Build(an, model)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSolvePSOReorder(t *testing.T) {
	src := `
int x;
int y;
func t2() {
	int r1 = y;
	if (r1 == 1) {
		int r2 = x;
		assert(r2 == 1, "write reorder observed");
	}
}
func main() {
	int h;
	h = spawn t2();
	x = 1;
	y = 1;
	join(h);
}
`
	sys := buildFailingSystem(t, src, vm.PSO, 3000)
	sol, _, err := Solve(sys, Options{MaxPreemptions: -1})
	if err != nil {
		t.Fatalf("solve under PSO: %v", err)
	}
	if _, err := sys.ValidateSchedule(sol.Order); err != nil {
		t.Fatalf("solution does not validate: %v", err)
	}
	// Under SC the same analysis must be unsatisfiable: the bug needs the
	// write reordering.
	sysSC, err := constraints.Build(sys.An, vm.SC)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Solve(sysSC, Options{MaxPreemptions: 6}); err == nil {
		t.Fatal("the PSO-only bug must be unsatisfiable under the SC encoding")
	}
}

func TestSolveTSODekker(t *testing.T) {
	sys := buildFailingSystem(t, dekkerTSOSrc, vm.TSO, 3000)
	sol, _, err := Solve(sys, Options{MaxPreemptions: -1})
	if err != nil {
		t.Fatalf("solve dekker under TSO: %v", err)
	}
	if _, err := sys.ValidateSchedule(sol.Order); err != nil {
		t.Fatalf("solution does not validate: %v", err)
	}
	// The SC encoding of the same trace must be unsatisfiable.
	sysSC, err := constraints.Build(sys.An, vm.SC)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Solve(sysSC, Options{MaxPreemptions: 8}); err == nil {
		t.Fatal("the TSO-only Dekker bug must be unsatisfiable under SC")
	}
}

func TestPreemptionBoundRespected(t *testing.T) {
	sys := buildFailingSystem(t, figure2SC, vm.SC, 3000)
	minSol, _, err := Solve(sys, Options{MaxPreemptions: -1})
	if err != nil {
		t.Fatal(err)
	}
	// The bound is a hard cap on the returned schedule: re-solving with the
	// found count must succeed within it, and larger bounds must not force
	// larger answers.
	sol2, _, err := Solve(sys, Options{MaxPreemptions: minSol.Preemptions})
	if err != nil {
		t.Fatalf("bound %d should be satisfiable: %v", minSol.Preemptions, err)
	}
	if sol2.Preemptions > minSol.Preemptions {
		t.Fatal("bound violated")
	}
	sol3, _, err := Solve(sys, Options{MaxPreemptions: minSol.Preemptions + 4})
	if err != nil {
		t.Fatalf("looser bound should be satisfiable: %v", err)
	}
	if sol3.Preemptions > minSol.Preemptions+4 {
		t.Fatal("loose bound violated")
	}
}
