package cnfsolver_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/solver"
	"repro/internal/symexec"
	"repro/internal/vm"
)

// usesCondvars reports whether any thread waits, signals or broadcasts:
// the descent charges every open wait-end gap, so on such systems it may
// stop above the minimum.
func usesCondvars(sys *constraints.System) bool {
	for _, sap := range sys.SAPs {
		switch sap.Kind {
		case symexec.SAPWaitBegin, symexec.SAPWaitEnd, symexec.SAPSignal, symexec.SAPBroadcast:
			return true
		}
	}
	return false
}

// checkDescent compares SolveMinimal(0) with the sequential sweep on one
// system. Every schedule the descent returns must validate and can never
// beat the bounds the sweep refuted exhaustively; when the sweep refuted
// every bound below its answer and the system is SC without condition
// variables, the descent must return exactly that minimum. It reports
// whether the exact comparison applied.
func checkDescent(t *testing.T, name string, sys *constraints.System) bool {
	t.Helper()
	seq, st, err := solver.Solve(sys, solver.Options{MaxPreemptions: -1, Deadline: 2 * time.Second})
	if err != nil {
		t.Logf("%s: sequential sweep: %v", name, err)
	}
	sess, err := cnfsolver.NewSession(sys, cnfsolver.Options{Deadline: 60 * time.Second})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sol, _, err := sess.SolveMinimal(0)
	if err != nil {
		t.Fatalf("%s: SolveMinimal: %v", name, err)
	}
	w, err := sys.ValidateSchedule(sol.Order)
	if err != nil {
		t.Fatalf("%s: descent schedule does not validate: %v", name, err)
	}
	if w.Preemptions != sol.Preemptions {
		t.Fatalf("%s: solution reports %d preemptions, witness %d", name, sol.Preemptions, w.Preemptions)
	}
	if sol.Preemptions < st.Refuted {
		t.Fatalf("%s: descent returned %d preemptions, below the %d bounds the sweep refuted", name, sol.Preemptions, st.Refuted)
	}
	if seq == nil || st.Refuted != seq.Preemptions || sys.Model != vm.SC || usesCondvars(sys) {
		return false
	}
	if sol.Preemptions != seq.Preemptions {
		t.Errorf("%s: descent returned %d preemptions, the sequential minimum is %d", name, sol.Preemptions, seq.Preemptions)
	}
	return true
}

// TestDescentMatchesSequentialMinimum is the descent's differential test
// over the SC evaluation programs, three recordings each; those with
// condition variables, and those the sweep cannot finish in its budget
// (apache and racey), only check validity and the refuted floor.
func TestDescentMatchesSequentialMinimum(t *testing.T) {
	if testing.Short() {
		t.Skip("records every SC evaluation program")
	}
	exact := 0
	for _, b := range bench.All() {
		if b.Model != vm.SC {
			continue
		}
		prog, err := core.Compile(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < 3; k++ {
			rec, err := core.Record(prog, core.RecordOptions{Model: b.Model, Inputs: b.Inputs, Seed: k << 20, SeedLimit: b.SeedLimit})
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			sys, err := rec.Analyze()
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			sys.Preprocess()
			if checkDescent(t, b.Name, sys) {
				exact++
			}
		}
	}
	// sim_race, swarm and pfscan alone give nine exact comparisons, each
	// swept in milliseconds even under the race detector.
	if exact < 8 {
		t.Fatalf("only %d recordings compared exactly; the sweep refuted too few bounds", exact)
	}
	t.Logf("%d recordings compared exactly", exact)
}

// TestPropertyDescentSymbolicAddr runs the differential check on random
// symbolic-address programs, where address-split refinement shapes every
// descent step.
func TestPropertyDescentSymbolicAddr(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	exact := 0
	for trial := 0; trial < 12; trial++ {
		src := genSymbolicAddrProgram(r)
		prog, err := core.Compile(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		rec, err := core.Record(prog, core.RecordOptions{Model: vm.SC, SeedLimit: 3000})
		if err != nil {
			continue // this variant never failed
		}
		sys, err := rec.Analyze()
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		sys.Preprocess()
		if checkDescent(t, src, sys) {
			exact++
		}
	}
	if exact < 5 {
		t.Fatalf("only %d random programs compared exactly", exact)
	}
	t.Logf("%d random programs compared exactly", exact)
}
