// Quickstart: record a concurrency failure and reproduce it with CLAP.
//
// The program is Figure 2 of the paper (left side): two threads, two
// shared variables, and an assertion that only fails under one rare
// interleaving. The pipeline:
//
//  1. record  — run under seeded random schedules, logging only each
//     thread's Ball–Larus control-flow path, until the assertion fails;
//  2. analyze — symbolically re-execute the recorded paths and build
//     F = Fpath ∧ Fbug ∧ Fso ∧ Frw ∧ Fmo;
//  3. solve   — compute a SAP schedule with minimal preemptions;
//  4. replay  — drive the program deterministically along the schedule
//     and watch the same assertion fail again.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/vm"
)

const program = `
int x;
int y;

func t1() {
	int r1 = x;
	x = r1 + 1;
	int r2 = y;
	if (r2 > 0) {
		int r3 = x;
		assert(r3 > 0, "assert1: x must stay positive");
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

func main() {
	fmt.Println("== CLAP quickstart: Figure 2 of the paper ==")

	prog, err := core.Compile(program)
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: record. Only thread-local paths are logged — no shared
	// memory dependencies, no values, no added synchronization.
	rec, err := core.Record(prog, core.RecordOptions{Model: vm.SC, SeedLimit: 5000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded failure with scheduler seed %d: %v\n", rec.Seed, rec.Failure)
	fmt.Printf("  CLAP path log: %d bytes for %d threads (%d instructions executed)\n",
		rec.LogSize(), len(rec.Log.Threads), rec.Run.Instructions)

	// Phases 2-4: analyze, solve, replay.
	rep, err := core.Reproduce(rec, core.ReproduceOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("constraints: %s\n", rep.Stats)
	fmt.Printf("schedule: %d SAPs with %d preemptive context switches (symbolic %.3fs, solve %.3fs)\n",
		len(rep.Solution.Order), rep.Solution.Preemptions,
		rep.SymbolicTime().Seconds(), rep.SolveTime().Seconds())

	fmt.Println("computed SAP schedule:")
	for i, ref := range rep.Solution.Order {
		fmt.Printf("  %2d: %s\n", i, rep.System.SAP(ref))
	}

	if rep.Outcome.Reproduced {
		fmt.Printf("\nreplay: the assertion failed again, deterministically (%d events verified) — bug reproduced.\n",
			rep.Outcome.EventsMatched)
	} else {
		log.Fatal("replay did not reproduce the bug")
	}
}
