package cnfsolver_test

import (
	"testing"

	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/symexec"
	"repro/internal/vm"
)

func buildSystem(t *testing.T, src string, model vm.MemModel, seeds int64) (*core.Recording, *constraints.System) {
	t.Helper()
	prog, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.Record(prog, core.RecordOptions{Model: model, SeedLimit: seeds})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rec.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return rec, sys
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

const lostUpdateSC = `
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

// figure2PSO is the paper's second Figure 2 assertion: y==1 observed but
// x still 0, possible only once the main thread's writes reorder.
const figure2PSO = `
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

func TestCNFSolverFigure2(t *testing.T) {
	rec, sys := buildSystem(t, figure2SC, vm.SC, 3000)
	sol, stats, err := cnfsolver.Solve(sys, cnfsolver.Options{})
	if err != nil {
		t.Fatalf("cnf solve: %v (stats %+v)", err, stats)
	}
	if _, err := sys.ValidateSchedule(sol.Order); err != nil {
		t.Fatalf("solution does not validate: %v", err)
	}
	if stats.BoolVars == 0 || stats.Clauses == 0 {
		t.Error("stats missing")
	}
	// The CNF solution must replay just like the dedicated solver's.
	out, err := replay.Run(sys, sol, replay.Options{Mode: replay.ModeFor(rec.Model), Inputs: rec.Inputs})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reproduced {
		t.Fatal("CNF-backend schedule did not reproduce the bug")
	}
}

// TestCNFSolverAgreesWithOracle checks CNF's verdict against the brute
// force walk over every linear extension: a schedule exists exactly when
// the oracle finds a valid one.
func TestCNFSolverAgreesWithOracle(t *testing.T) {
	srcs := map[string]string{
		"figure2":     figure2SC,
		"lost update": lostUpdateSC,
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			_, sys := buildSystem(t, src, vm.SC, 3000)
			_, _, err := cnfsolver.Solve(sys, cnfsolver.Options{})
			if found := walkOracle(t, sys).minPreemptions >= 0; (err == nil) != found {
				t.Fatalf("solver disagreement: cnf=%v, oracle found a schedule: %v", err, found)
			}
		})
	}
}

func TestCNFSolverPSO(t *testing.T) {
	_, sys := buildSystem(t, figure2PSO, vm.PSO, 3000)
	sol, _, err := cnfsolver.Solve(sys, cnfsolver.Options{})
	if err != nil {
		t.Fatalf("cnf solve under PSO: %v", err)
	}
	if _, err := sys.ValidateSchedule(sol.Order); err != nil {
		t.Fatalf("solution does not validate: %v", err)
	}
	// The SC encoding of the same recording must be unsatisfiable.
	sysSC, err := constraints.Build(sys.An, vm.SC)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cnfsolver.Solve(sysSC, cnfsolver.Options{}); err == nil {
		t.Fatal("PSO-only bug must be UNSAT under the SC encoding")
	} else if _, ok := err.(*cnfsolver.Unsat); !ok {
		t.Fatalf("expected Unsat, got %v", err)
	}
}

func dummySAPs(n int) []*symexec.SAP {
	saps := make([]*symexec.SAP, n)
	for i := range saps {
		saps[i] = &symexec.SAP{}
	}
	return saps
}

// TestSessionAcceptsLargeSystems pins that no system is too large to
// encode: the pair table holds only the pairs the constraints mention, so
// a session's size does not grow with the square of the SAP count.
func TestSessionAcceptsLargeSystems(t *testing.T) {
	sys := &constraints.System{SAPs: dummySAPs(2500)}
	sess := cnfsolver.NewSession(sys, cnfsolver.Options{})
	if st := sess.Stats(); st.BoolVars != 0 || st.Clauses != 0 {
		t.Fatalf("a system without constraints encoded to %d vars, %d clauses", st.BoolVars, st.Clauses)
	}
}
