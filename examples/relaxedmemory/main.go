// Relaxed memory: reproduce bugs that cannot happen under sequential
// consistency.
//
// This example runs two classics:
//
//   - Figure 2 (right) of the paper: two plain writes x=1; y=1 and a
//     reader that asserts x==1 after seeing y==1. Under SC and TSO the
//     write order makes the assertion safe; under PSO the per-address
//     store buffers can make y visible first.
//
//   - Dekker's mutual exclusion: correct under SC, broken under TSO
//     because each thread's flag write can stay buffered past its read of
//     the other's flag.
//
// For each bug the example records a failing run under the relaxed model,
// shows that the same recorded trace is *unsatisfiable* under the SC
// encoding (the bug genuinely needs the relaxation), solves under the
// correct model, and replays with value injection — the paper's "actively
// controlling the value returned by shared data loads".
package main

import (
	"fmt"
	"log"

	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/vm"
)

const psoProgram = `
int x;
int y;

func reader() {
	int r1 = y;
	if (r1 == 1) {
		int r2 = x;
		assert(r2 == 1, "assert2: y==1 implies x==1 ... unless writes reorder");
	}
}

func main() {
	int h;
	h = spawn reader();
	x = 1;
	y = 1;
	join(h);
}
`

const dekkerProgram = `
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
	int h0 = spawn t0();
	int h1 = spawn t1();
	join(h0);
	join(h1);
	int b = bad;
	assert(b == 0, "mutual exclusion violated");
}
`

func demo(name, src string, model vm.MemModel) {
	fmt.Printf("== %s under %s ==\n", name, model)
	prog, err := core.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	rec, err := core.Record(prog, core.RecordOptions{Model: model, SeedLimit: 5000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded failure (seed %d): %v\n", rec.Seed, rec.Failure)

	// The same thread-local trace is infeasible under SC: this failure
	// NEEDS the relaxed memory model.
	sys, err := rec.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	scSys, err := constraints.Build(sys.An, vm.SC)
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := cnfsolver.Solve(scSys, cnfsolver.Options{}); err == nil {
		log.Fatalf("%s: the trace should be UNSAT under SC", name)
	} else {
		fmt.Printf("SC encoding of the same trace: %v  ✓ (the bug requires %s)\n", err, model)
	}

	rep, err := core.Reproduce(rec, core.ReproduceOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s schedule found: %d SAPs, %d preemptions\n",
		model, len(rep.Solution.Order), rep.Solution.Preemptions)
	fmt.Printf("replay (value-injected): reproduced=%v\n\n", rep.Outcome.Reproduced)
}

func main() {
	demo("Figure 2 (right): write reordering", psoProgram, vm.PSO)
	demo("Dekker's algorithm", dekkerProgram, vm.TSO)
}
