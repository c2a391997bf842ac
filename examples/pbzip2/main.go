// pbzip2: reproduce the order-violation crash studied throughout the
// concurrency-debugging literature (and in §6.1 of the CLAP paper).
//
// The real pbzip2-0.9.4 bug: the main thread tears down the FIFO queue's
// mutex while consumer threads are still using it, crashing the program
// intermittently. This example runs the mini-language re-creation through
// the full pipeline and prints the human-readable schedule — the artifact
// a developer would study to understand the bug, with its characteristic
// small number of preemptive context switches.
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/symexec"
)

func main() {
	b, ok := bench.ByName("pbzip2")
	if !ok {
		log.Fatal("pbzip2 benchmark missing")
	}
	fmt.Println("== pbzip2 order violation ==")
	fmt.Println(b.Description)

	prog, err := core.Compile(b.Source)
	if err != nil {
		log.Fatal(err)
	}
	rec, err := core.Record(prog, core.RecordOptions{
		Model:     b.Model,
		Inputs:    b.Inputs,
		SeedLimit: b.SeedLimit,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecorded crash with seed %d: %v\n", rec.Seed, rec.Failure)
	fmt.Printf("CLAP log: %d bytes (thread-local paths only)\n", rec.LogSize())

	rep, err := core.Reproduce(rec, core.ReproduceOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("constraints: %s\n", rep.Stats)
	fmt.Printf("schedule: %d preemptive context switches\n\n", rep.Solution.Preemptions)

	// Print the schedule grouped into per-thread runs — the way a
	// developer reads a reproduction: long sequential stretches broken by
	// the few preemptions that matter.
	var lastThread = -1
	for _, ref := range rep.Solution.Order {
		s := rep.System.SAP(ref)
		if int(s.Thread) != lastThread {
			fmt.Printf("thread %d:\n", s.Thread)
			lastThread = int(s.Thread)
		}
		extra := ""
		if s.Kind == symexec.SAPRead {
			extra = fmt.Sprintf(" = %d", rep.Solution.Witness.Env[s.Sym.ID])
		}
		fmt.Printf("    %s%s\n", s, extra)
	}

	if rep.Outcome.Reproduced {
		fmt.Println("\nreplay: crash reproduced deterministically.")
	} else {
		log.Fatal("replay failed")
	}
}
