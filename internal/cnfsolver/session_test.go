package cnfsolver_test

import (
	"errors"
	"testing"

	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/symexec"
	"repro/internal/vm"
)

// conflictingPair returns two memory SAPs on the same variable from
// different threads, at least one a write — the shape the races
// enumerator feeds AssumeAdjacent.
func conflictingPair(t *testing.T, sys *constraints.System) (constraints.SAPRef, constraints.SAPRef) {
	t.Helper()
	for i := range sys.SAPs {
		x := sys.SAP(constraints.SAPRef(i))
		if !x.Kind.IsMemory() {
			continue
		}
		for j := i + 1; j < len(sys.SAPs); j++ {
			y := sys.SAP(constraints.SAPRef(j))
			if !y.Kind.IsMemory() || x.Var != y.Var || x.Thread == y.Thread {
				continue
			}
			if x.Kind != symexec.SAPWrite && y.Kind != symexec.SAPWrite {
				continue
			}
			return constraints.SAPRef(i), constraints.SAPRef(j)
		}
	}
	t.Fatal("no conflicting cross-thread pair in system")
	return 0, 0
}

// solveMaybe runs Solve and classifies the outcome: a validated solution,
// an Unsat verdict, or a fatal test failure for anything else. Both
// normal outcomes are legal mid-interleave — what the session must never
// do is wedge.
func solveMaybe(t *testing.T, sys *constraints.System, sess *cnfsolver.Session) (sat bool) {
	t.Helper()
	sol, _, err := sess.Solve()
	if err != nil {
		var us *cnfsolver.Unsat
		if errors.As(err, &us) {
			return false
		}
		t.Fatalf("solve: %v", err)
	}
	if _, err := sys.ValidateSchedule(sol.Order); err != nil {
		t.Fatalf("solution does not validate: %v", err)
	}
	return true
}

// TestSessionAdjacencyInterleave drives one session through the races
// enumerator's real protocol with mapping blocks mixed in: Solve,
// BlockMapping, AssumeAdjacent, Solve, RetractBlocks, … — asserting that
// RetractBlocks always restores full satisfiability no matter which
// guard kinds are outstanding, and that a schedule produced under an
// adjacency assumption really keeps every sync operation on one side of
// the pair.
func TestSessionAdjacencyInterleave(t *testing.T) {
	_, sys := buildSystem(t, figure2SC, vm.SC, 3000)
	sess := cnfsolver.NewSession(sys, cnfsolver.Options{})
	if !solveMaybe(t, sys, sess) {
		t.Fatal("system must be satisfiable at the start")
	}
	a, b := conflictingPair(t, sys)

	// Mixed guards outstanding: a mapping block plus an adjacency group.
	sess.BlockMapping()
	sess.AssumeAdjacent(a, b)
	if solveMaybe(t, sys, sess) {
		sol, _, err := sess.Solve()
		if err != nil {
			t.Fatalf("re-solve under adjacency: %v", err)
		}
		pa, pb := -1, -1
		for i, r := range sol.Order {
			if r == a {
				pa = i
			}
			if r == b {
				pb = i
			}
		}
		if pa > pb {
			pa, pb = pb, pa
		}
		for k := pa + 1; k < pb; k++ {
			if sys.SAP(sol.Order[k]).Kind.IsSync() {
				t.Fatalf("sync SAP %s between the assumed-adjacent pair", sys.SAP(sol.Order[k]))
			}
		}
	}

	// Retraction must clear both guard kinds at once.
	sess.RetractBlocks()
	if !solveMaybe(t, sys, sess) {
		t.Fatal("RetractBlocks did not restore satisfiability")
	}

	// Exhaust every mapping, then interleave again on the drained session.
	for rounds := 0; ; rounds++ {
		if rounds > 256 {
			t.Fatal("runaway enumeration")
		}
		if !solveMaybe(t, sys, sess) {
			break
		}
		sess.BlockMapping()
	}
	sess.RetractBlocks()
	sess.AssumeAdjacent(a, b)
	solveMaybe(t, sys, sess) // either verdict; must not error
	sess.RetractBlocks()
	if !solveMaybe(t, sys, sess) {
		t.Fatal("session wedged after exhaustion + adjacency interleave")
	}
}

// symbolicAddrSC indexes a shared array by a value read from a shared
// variable: the read's value is a fresh symbolic variable, so the write's
// address is unresolved and the session's address-split refinement must
// close the aliasing question lazily, model by model.
const symbolicAddrSC = `
int a[4];
int idx;
func t1() {
	idx = 1;
	a[2] = 5;
}
func main() {
	int h = spawn t1();
	int i = idx;
	a[i] = 7;
	join(h);
	int v = a[0];
	assert(v == 0, "racy index hit slot 0");
}
`

// TestSessionSymbolicAddrLazy pins the guard machinery on a
// symbolic-address system: the same BlockMapping / AssumeAdjacent /
// RetractBlocks interleave keeps working under address-split refinement —
// retraction semantics must be identical to the concrete-address path.
func TestSessionSymbolicAddrLazy(t *testing.T) {
	prog, err := core.Compile(symbolicAddrSC)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.Record(prog, core.RecordOptions{Model: vm.SC, Inputs: []int64{0}, SeedLimit: 3000})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rec.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sess := cnfsolver.NewSession(sys, cnfsolver.Options{})
	if !solveMaybe(t, sys, sess) {
		t.Fatal("system must be satisfiable")
	}
	a, b := conflictingPair(t, sys)
	sess.BlockMapping()
	sess.AssumeAdjacent(a, b)
	solveMaybe(t, sys, sess) // either verdict; must not error
	sess.RetractBlocks()
	if !solveMaybe(t, sys, sess) {
		t.Fatal("RetractBlocks did not restore satisfiability on the symbolic-address path")
	}
}
