package simplify_test

import (
	"testing"

	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/replay"
	"repro/internal/simplify"
	"repro/internal/solver"
	"repro/internal/symexec"
	"repro/internal/vm"
)

// recordWithOrder records a failing run and reconstructs its own schedule
// (the recorded global SAP order), which is valid under SC but typically
// has many context switches — the natural input to a simplifier.
func recordWithOrder(t *testing.T, src string, maxSeed int64) (*core.Recording, *constraints.System, []constraints.SAPRef) {
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
		var global []vm.VisibleEvent
		machine, err := vm.New(prog, vm.Config{
			Sched: vm.NewRandomScheduler(seed), Shared: esc.Shared, PathRecorder: rec,
			OnVisible: func(ev vm.VisibleEvent) {
				if ev.Kind != vm.EvDrain {
					global = append(global, ev)
				}
			},
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
		sys, err := constraints.Build(an, vm.SC)
		if err != nil {
			t.Fatal(err)
		}
		next := make([]int, len(sys.Threads))
		var order []constraints.SAPRef
		for _, ev := range global {
			order = append(order, sys.Threads[ev.Thread][next[ev.Thread]])
			next[ev.Thread]++
		}
		for tid, refs := range sys.Threads {
			for k := next[tid]; k < len(refs); k++ {
				order = append(order, refs[k])
			}
		}
		coreRec := &core.Recording{} // placeholder; only sys and order used
		_ = coreRec
		return nil, sys, order
	}
	t.Fatalf("no failing seed in %d tries", maxSeed)
	return nil, nil, nil
}

const chaosProgram = `
int a;
int b;
func worker(v) {
	int i;
	for (i = 0; i < 3; i = i + 1) {
		int t = a;
		a = t + v;
		int u = b;
		b = u + v;
	}
}
func main() {
	int h1 = spawn worker(1);
	int h2 = spawn worker(2);
	join(h1);
	join(h2);
	int fa = a;
	int fb = b;
	assert(fa == 9 && fb == 9, "updates lost");
}
`

func TestSimplifyReducesPreemptions(t *testing.T) {
	// Use a chaotic scheduler so the recorded order has many switches.
	reduced := false
	for try := 0; try < 5 && !reduced; try++ {
		_, sys, order := recordWithOrder(t, chaosProgram, 4000)
		res, err := simplify.Simplify(sys, order, simplify.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.After > res.Before {
			t.Fatalf("simplification increased preemptions: %d -> %d", res.Before, res.After)
		}
		if _, err := sys.ValidateSchedule(res.Order); err != nil {
			t.Fatalf("simplified schedule does not validate: %v", err)
		}
		if res.After < res.Before {
			reduced = true
		}
	}
	if !reduced {
		t.Log("no recorded order was reducible (already minimal); acceptable but unusual")
	}
}

func TestSimplifiedScheduleStillReplays(t *testing.T) {
	_, sys, order := recordWithOrder(t, chaosProgram, 4000)
	res, err := simplify.Simplify(sys, order, simplify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sol := &solver.Solution{Order: res.Order, Witness: res.Witness, Preemptions: res.After}
	out, err := replay.Run(sys, sol, replay.Options{Mode: replay.OrderEnforced})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reproduced {
		t.Fatal("simplified schedule no longer reproduces the bug")
	}
}

func TestSimplifyRejectsInvalidInput(t *testing.T) {
	_, sys, order := recordWithOrder(t, chaosProgram, 4000)
	bad := append([]constraints.SAPRef(nil), order...)
	bad[0], bad[len(bad)-1] = bad[len(bad)-1], bad[0]
	if _, err := simplify.Simplify(sys, bad, simplify.Options{}); err == nil {
		t.Fatal("invalid input schedule must be rejected")
	}
}

func TestSimplifyApproachesSolverMinimum(t *testing.T) {
	_, sys, order := recordWithOrder(t, chaosProgram, 4000)
	res, err := simplify.Simplify(sys, order, simplify.Options{MaxPasses: 32})
	if err != nil {
		t.Fatal(err)
	}
	minSol, _, err := cnfsolver.NewSession(sys, cnfsolver.Options{}).SolveMinimal(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.After < minSol.Preemptions {
		t.Fatalf("simplifier beat the solver's minimum: %d < %d (minimality broken)", res.After, minSol.Preemptions)
	}
	t.Logf("recorded %d -> simplified %d (solver minimum %d)", res.Before, res.After, minSol.Preemptions)
}
