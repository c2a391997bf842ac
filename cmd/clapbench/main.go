// Command clapbench regenerates the paper's evaluation tables.
//
// Usage:
//
//	clapbench -table 1            Table 1: bug-reproduction effectiveness
//	clapbench -table 2            Table 2: runtime/space overhead vs LEAP
//	clapbench -table 3            Table 3: parallel constraint solving
//	clapbench -table all          everything
//	clapbench -bench <name,...>   restrict to specific benchmarks
//	clapbench -runs N             Table 2 repetitions (default 5)
//	clapbench -workers N          Table 3 validation workers (default 8,
//	                              the paper's eight-core machine)
//	clapbench -deadline 30s       Table 3 per-benchmark deadline of the
//	                              parallel solver and the CNF session
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: 1, 2, 3, all")
	names := flag.String("bench", "", "comma-separated benchmark subset (default: all)")
	runs := flag.Int("runs", 5, "Table 2 repetitions")
	workers := flag.Int("workers", 8, "Table 3 validation workers")
	deadline := flag.Duration("deadline", 60*time.Second, "Table 3 per-benchmark deadline of the parallel solver and the CNF session")
	flag.Parse()

	selected := bench.All()
	if *names != "" {
		selected = nil
		for _, n := range strings.Split(*names, ",") {
			b, ok := bench.ByName(strings.TrimSpace(n))
			if !ok {
				fmt.Fprintf(os.Stderr, "clapbench: unknown benchmark %q\n", n)
				os.Exit(1)
			}
			selected = append(selected, b)
		}
	}

	want := func(t string) bool { return *table == "all" || *table == t }

	if want("1") {
		fmt.Println("=== Table 1: bug reproduction effectiveness (product solver + verified replay) ===")
		rows := bench.Table1(selected)
		bench.FormatTable1(os.Stdout, rows)
		fmt.Println()
	}
	if want("2") {
		fmt.Println("=== Table 2: runtime and space overhead, CLAP vs LEAP (median of", *runs, "runs) ===")
		subset := bench.Table2Programs
		if *names != "" {
			subset = nil
			for _, b := range selected {
				subset = append(subset, b.Name)
			}
		}
		rows := bench.Table2(subset, *runs)
		bench.FormatTable2(os.Stdout, rows)
		fmt.Println()
	}
	if want("3") {
		fmt.Printf("=== Table 3: parallel constraint solving (%d workers; T-seq is the CNF session) ===\n", *workers)
		rows := bench.Table3(selected, *workers, *deadline)
		bench.FormatTable3(os.Stdout, rows)
		fmt.Println()
	}
}
