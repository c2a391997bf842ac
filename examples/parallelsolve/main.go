// Parallel solving: compare CLAP's three solving strategies on one
// recorded failure (§4.3 and Table 3 of the paper).
//
//   - enumerate: preemption-bounded schedule generation validated on one
//     goroutine, bounds 0 to 3 — the product path's head start;
//   - parallel: the same generation with a pool of validation workers —
//     the paper's parallel algorithm;
//   - cnf: the SMT-style backend — CDCL SAT over boolean order variables
//     with lazy order, address and value theories, searching to the
//     fewest preemptions.
//
// All three must agree, and every returned schedule must replay to the
// same assertion failure.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/cnfsolver"
	"repro/internal/core"
	"repro/internal/parsolve"
	"repro/internal/replay"
	"repro/internal/schedule"
	"repro/internal/solver"
	"repro/internal/vm"
)

const program = `
int turn;
int done;
int log0[16];
int pos;

func stage(id, n) {
	int i;
	for (i = 0; i < n; i = i + 1) {
		// Per-thread slots: concrete addresses, so all three solvers get
		// the exact read→write structure.
		log0[(id - 1) * 8 + i] = id * 100 + i;
		int p = pos;
		pos = p + 1;
		int t = turn;
		turn = t + 1;
	}
	done = done + 1;
}

func main() {
	int h1 = spawn stage(1, 3);
	int h2 = spawn stage(2, 3);
	join(h1);
	join(h2);
	int d = done;
	int t = turn;
	assert(d == 2 && t == 6, "updates lost in turn/done accounting");
}
`

func main() {
	prog, err := core.Compile(program)
	if err != nil {
		log.Fatal(err)
	}
	rec, err := core.Record(prog, core.RecordOptions{Model: vm.SC, SeedLimit: 5000})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := rec.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded failure (seed %d); constraint system: %s\n\n", rec.Seed, sys.ComputeStats())

	verify := func(name string, sol *solver.Solution, elapsed time.Duration) {
		out, err := replay.Run(sys, sol, replay.Options{Mode: replay.ModeFor(rec.Model), Inputs: rec.Inputs})
		if err != nil {
			log.Fatalf("%s: replay error: %v", name, err)
		}
		fmt.Printf("%-12s %8.3fs   %d preemptions   reproduced=%v\n",
			name, elapsed.Seconds(), sol.Preemptions, out.Reproduced)
	}

	t0 := time.Now()
	order, w, _ := schedule.Enumerate(sys, nil)
	if order == nil {
		log.Fatal("enumeration found nothing within 3 preemptions")
	}
	verify("enumerate", &solver.Solution{Order: order, Witness: w, Preemptions: w.Preemptions}, time.Since(t0))

	t1 := time.Now()
	par, err := parsolve.Solve(sys, parsolve.Options{Workers: runtime.GOMAXPROCS(0), StopAfter: 4})
	if err != nil {
		log.Fatal(err)
	}
	if !par.Found() {
		log.Fatal("parallel solver found nothing")
	}
	verify("parallel", par.Solutions[0], time.Since(t1))
	fmt.Printf("             generated %d candidates at bound %d, %d validated as correct\n",
		par.Generated, par.Bound, par.Valid)

	t2 := time.Now()
	cnfSol, st, err := cnfsolver.NewSession(sys, cnfsolver.Options{}).SolveMinimal(0)
	if err != nil {
		log.Fatal(err)
	}
	verify("cnf", cnfSol, time.Since(t2))
	fmt.Printf("             %d boolean variables, %d clauses, %d value checks\n",
		st.BoolVars, st.Clauses, st.TheoryRounds)
}
