package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/parsolve"
	"repro/internal/vm"
)

// Prepared bundles a benchmark's recorded failure and constraint system so
// the three tables can share the expensive phases.
type Prepared struct {
	Bench     Benchmark
	Prog      *ir.Program
	Recording *core.Recording
	System    *constraints.System
	Stats     constraints.Stats
	Symbolic  time.Duration
}

// Prepare compiles, records a failing run and builds the constraint system.
func Prepare(b Benchmark) (*Prepared, error) {
	prog, err := core.Compile(b.Source)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	rec, err := core.Record(prog, core.RecordOptions{
		Model:     b.Model,
		Inputs:    b.Inputs,
		SeedLimit: b.SeedLimit,
	})
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	t0 := time.Now()
	sys, err := rec.Analyze()
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	return &Prepared{
		Bench:     b,
		Prog:      prog,
		Recording: rec,
		System:    sys,
		Stats:     sys.ComputeStats(),
		Symbolic:  time.Since(t0),
	}, nil
}

// StageDeadline bounds each solve the bench tests time, so a regression
// shows up as an interrupted solve instead of a hung test run.
const StageDeadline = 60 * time.Second

// FreshSystem builds a preprocessed constraint system from the prepared
// recording. Callers take their own system rather than sharing p.System
// because Preprocess mutates the system in place (candidate pruning) and
// the Table benchmarks measure the un-preprocessed build.
func FreshSystem(p *Prepared) (*constraints.System, error) {
	sys, err := p.Recording.Analyze()
	if err != nil {
		return nil, err
	}
	sys.Preprocess()
	return sys, nil
}

// Table1Row is one line of the paper's Table 1.
type Table1Row struct {
	Program     string
	LOC         int
	Threads     int
	SV          int
	Inst        int64
	Br          int64
	SAPs        int
	Constraints int
	Variables   int
	SymbolicSec float64
	SolveSec    float64
	CS          int
	Success     bool
	Err         string
}

// Table1 reproduces every benchmark's bug on the product path (the solver
// portfolio) with a verifying replay, reporting the paper's Table 1
// columns.
func Table1(benches []Benchmark) []Table1Row {
	var rows []Table1Row
	for _, b := range benches {
		row := Table1Row{Program: b.Name, LOC: locOf(b.Source)}
		p, err := Prepare(b)
		if err != nil {
			row.Err = err.Error()
			rows = append(rows, row)
			continue
		}
		row.Threads = p.Recording.Run.Threads
		row.SV = p.Recording.Sharing.SharedCount()
		row.Inst = p.Recording.Run.Instructions
		row.Br = p.Recording.Run.Branches
		row.SAPs = p.Stats.SAPs
		row.Constraints = p.Stats.Clauses
		row.Variables = p.Stats.Variables
		row.SymbolicSec = p.Symbolic.Seconds()

		rep, err := core.Reproduce(p.Recording, core.ReproduceOptions{})
		if err != nil {
			row.Err = err.Error()
			rows = append(rows, row)
			continue
		}
		row.SolveSec = rep.SolveTime().Seconds()
		row.CS = rep.Solution.Preemptions
		row.Success = rep.Outcome != nil && rep.Outcome.Reproduced
		rows = append(rows, row)
	}
	return rows
}

// FormatTable1 renders rows like the paper's Table 1.
func FormatTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-10s %5s %8s %4s %9s %8s %7s %12s %10s %10s %9s %4s %s\n",
		"Program", "LOC", "#Threads", "#SV", "#Inst", "#Br", "#SAPs",
		"#Constraints", "#Variables", "T-symb(s)", "T-solve(s)", "#cs", "ok?")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(w, "%-10s %5d ERROR: %s\n", r.Program, r.LOC, r.Err)
			continue
		}
		ok := "Y"
		if !r.Success {
			ok = "N"
		}
		fmt.Fprintf(w, "%-10s %5d %8d %4d %9d %8d %7d %12d %10d %10.3f %9.3f %4d %s\n",
			r.Program, r.LOC, r.Threads, r.SV, r.Inst, r.Br, r.SAPs,
			r.Constraints, r.Variables, r.SymbolicSec, r.SolveSec, r.CS, ok)
	}
}

// Table2Row is one line of the paper's Table 2: native vs LEAP vs CLAP.
type Table2Row struct {
	Program           string
	NativeNs          int64
	LeapNs            int64
	ClapNs            int64
	LeapOverheadPct   float64
	ClapOverheadPct   float64
	TimeReductionPct  float64
	LeapBytes         int
	ClapBytes         int
	SpaceReductionPct float64
	Err               string
}

// Table2Programs is the paper's Table 2 subset.
var Table2Programs = []string{
	"sim_race", "bbuf", "swarm", "pbzip2", "aget", "pfscan", "apache", "racey",
}

// Table2 measures runtime and log-size overheads of CLAP and LEAP against
// native execution. Each setting runs the identical seeded schedule (the
// recorders never influence scheduling); the reported time is the median
// of `runs` interleaved repetitions with a GC flush before each (the
// paper averages 5 runs of its native workloads).
func Table2(names []string, runs int) []Table2Row {
	if runs <= 0 {
		runs = 5
	}
	var rows []Table2Row
	for _, name := range names {
		b, ok := ByName(name)
		if !ok {
			rows = append(rows, Table2Row{Program: name, Err: "unknown benchmark"})
			continue
		}
		row := measureOverhead(b, runs)
		rows = append(rows, row)
	}
	return rows
}

func measureOverhead(b Benchmark, runs int) Table2Row {
	row := Table2Row{Program: b.Name}
	prog, err := core.Compile(b.Source)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	inputs := b.Table2Inputs
	if inputs == nil {
		inputs = b.Inputs
	}
	const seed = 12345
	type setting struct {
		name string
		leap bool
		clap bool
	}
	settings := []setting{{"native", false, false}, {"leap", true, false}, {"clap", false, true}}
	oneRun := func(st setting, record bool) (int64, error) {
		conf := vm.Config{
			Model:  b.Model,
			Inputs: inputs,
			Sched:  vm.NewRandomScheduler(seed),
		}
		var clapRec *vm.PathRecorder
		var leapRec *vm.LeapRecorder
		if st.clap {
			var err error
			clapRec, err = vm.NewPathRecorder(prog)
			if err != nil {
				return 0, err
			}
			conf.PathRecorder = clapRec
		}
		if st.leap {
			leapRec = vm.NewLeapRecorder(prog)
			conf.LeapRecorder = leapRec
		}
		machine, err := vm.New(prog, conf)
		if err != nil {
			return 0, err
		}
		// Flush allocator/GC debt before timing so the previous setting's
		// garbage is not charged to this run (on a single-CPU machine the
		// collector otherwise runs inside whatever measurement comes next).
		runtime.GC()
		t0 := time.Now()
		if _, err := machine.Run(); err != nil {
			return 0, err
		}
		elapsed := time.Since(t0).Nanoseconds()
		if record {
			if st.clap {
				row.ClapBytes = clapRec.Log.Size()
			}
			if st.leap {
				row.LeapBytes = leapRec.Log.Size()
			}
		}
		return elapsed, nil
	}
	// One untimed warmup per setting, then interleaved timed rounds so
	// cache warm-up and allocator state hit every setting equally — the
	// runs are identical executions (same seed), so only the recording
	// cost should differ.
	for _, st := range settings {
		if _, err := oneRun(st, true); err != nil {
			row.Err = err.Error()
			return row
		}
	}
	samples := map[string][]int64{}
	for k := 0; k < runs; k++ {
		for _, st := range settings {
			ns, err := oneRun(st, false)
			if err != nil {
				row.Err = err.Error()
				return row
			}
			samples[st.name] = append(samples[st.name], ns)
		}
	}
	median := func(xs []int64) int64 {
		sorted := append([]int64(nil), xs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return sorted[len(sorted)/2]
	}
	row.NativeNs = median(samples["native"])
	row.LeapNs = median(samples["leap"])
	row.ClapNs = median(samples["clap"])
	if row.NativeNs > 0 {
		row.LeapOverheadPct = 100 * float64(row.LeapNs-row.NativeNs) / float64(row.NativeNs)
		row.ClapOverheadPct = 100 * float64(row.ClapNs-row.NativeNs) / float64(row.NativeNs)
	}
	if row.LeapNs > 0 {
		row.TimeReductionPct = 100 * float64(row.LeapNs-row.ClapNs) / float64(row.LeapNs)
	}
	if row.LeapBytes > 0 {
		row.SpaceReductionPct = 100 * float64(row.LeapBytes-row.ClapBytes) / float64(row.LeapBytes)
	}
	return row
}

// FormatTable2 renders rows like the paper's Table 2.
func FormatTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-10s %12s %22s %22s %10s %10s %10s %8s\n",
		"Program", "Native", "LEAP (overhead%)", "CLAP (overhead%)", "T-red%", "LEAP-log", "CLAP-log", "S-red%")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(w, "%-10s ERROR: %s\n", r.Program, r.Err)
			continue
		}
		fmt.Fprintf(w, "%-10s %10dus %12dus (%5.1f) %12dus (%5.1f) %9.1f %9dB %9dB %7.1f\n",
			r.Program, r.NativeNs/1000, r.LeapNs/1000, r.LeapOverheadPct,
			r.ClapNs/1000, r.ClapOverheadPct, r.TimeReductionPct,
			r.LeapBytes, r.ClapBytes, r.SpaceReductionPct)
	}
}

// Table3Row is one line of the paper's Table 3: parallel solving.
type Table3Row struct {
	Program    string
	WorstLog10 float64
	Generated  int64
	CS         int
	Good       int
	ParSec     float64
	SeqSec     float64
	Found      bool
	Capped     bool
	Err        string
}

// Table3 compares the parallel generate-and-validate solver against
// sequential solving on each benchmark. The sequential side is the CNF
// session's minimal-preemption search, this repository's stand-in for
// the paper's STP.
func Table3(benches []Benchmark, workers int, deadline time.Duration) []Table3Row {
	var rows []Table3Row
	for _, b := range benches {
		row := Table3Row{Program: b.Name}
		p, err := Prepare(b)
		if err != nil {
			row.Err = err.Error()
			rows = append(rows, row)
			continue
		}
		row.WorstLog10 = worstCaseLog10(p.System)

		t0 := time.Now()
		par, err := parsolve.Solve(p.System, parsolve.Options{
			Workers:      workers,
			MaxBound:     b.ParallelBound,
			StopAfter:    1,
			MaxSchedules: 2_000_000,
			Deadline:     deadline,
		})
		if err != nil {
			row.Err = err.Error()
			rows = append(rows, row)
			continue
		}
		row.ParSec = time.Since(t0).Seconds()
		row.Generated = par.Generated
		row.Good = par.Valid
		row.Found = par.Found()
		row.Capped = par.Capped || par.TimedOut
		if par.Found() {
			row.CS = par.Solutions[0].Preemptions
		}

		t1 := time.Now()
		// T-seq is the time to an answer: like T-par, it is reported
		// whether or not the solve found a schedule in the deadline.
		_, _, _ = cnfsolver.NewSession(p.System, cnfsolver.Options{Deadline: deadline}).SolveMinimal(0)
		row.SeqSec = time.Since(t1).Seconds()
		rows = append(rows, row)
	}
	return rows
}

// worstCaseLog10 estimates the log10 of the number of possible schedules:
// for per-thread SAP counts k1..kn the interleaving count is
// (Σki)! / Π(ki!), the standard bound the paper cites from [25, 27].
func worstCaseLog10(sys *constraints.System) float64 {
	total := 0.0
	sum := 0
	for _, refs := range sys.Threads {
		sum += len(refs)
		lg, _ := math.Lgamma(float64(len(refs) + 1))
		total -= lg
	}
	lg, _ := math.Lgamma(float64(sum + 1))
	total += lg
	return total / math.Ln10
}

// FormatTable3 renders rows like the paper's Table 3.
func FormatTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "%-10s %14s %12s %6s %6s %10s %10s\n",
		"Program", "#worst", "#gen(#cs)", "#good", "found", "T-par(s)", "T-seq(s)")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(w, "%-10s ERROR: %s\n", r.Program, r.Err)
			continue
		}
		found := "Y"
		if !r.Found {
			found = "N"
		}
		capped := ""
		if r.Capped {
			capped = "*"
		}
		fmt.Fprintf(w, "%-10s %13s %9d(%d)%s %6d %6s %10.3f %10.3f\n",
			r.Program, fmt.Sprintf("> 10^%.0f", r.WorstLog10), r.Generated, r.CS, capped,
			r.Good, found, r.ParSec, r.SeqSec)
	}
	fmt.Fprintln(w, "(* generation capped or timed out before exhausting the bound)")
}

// locOf counts non-blank source lines.
func locOf(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}
