// Command clap runs the CLAP pipeline on mini-language programs.
//
// Usage:
//
//	clap run <prog.mc> [flags]         execute once under a seeded schedule
//	clap record <prog.mc> [flags]      hunt a failing schedule, dump the path log
//	clap reproduce <prog.mc> [flags]   record, solve, and replay the failure
//	clap bench <name>                  reproduce one built-in benchmark
//	clap vet <prog.mc>...              static lockset/happens-before lint:
//	                                   potential races and lock-order cycles
//	clap races <prog.mc|bench>         predictive race detection: record one
//	                                   execution, then decide each conflicting
//	                                   access pair by solver-checked adjacency
//	                                   (-json for the clap-races/1 report,
//	                                   -witness for witness schedules)
//	clap decodelog <log> [flags]       inspect a recorded path log file
//	clap stats <metrics.json>          pretty-print a -metrics-json report
//	clap timeline <prog.mc|bench>      record, solve and replay, then write the
//	                                   flight-recorder timeline: Chrome trace-event
//	                                   JSON with -o (Perfetto/chrome://tracing),
//	                                   an ASCII rendering on stdout otherwise
//	clap explain <prog.mc|bench>       record and solve, then explain: the SAP
//	                                   pairs the solver flipped against the
//	                                   recorded order (with source positions), or
//	                                   — when no schedule exists — the minimal
//	                                   conflicting constraint-group core
//	clap serve -dir D [-addr A]        run the reproduction daemon: HTTP ingest
//	                                   of recorded bundles, durable jobs, crash
//	                                   recovery (see serve.go for its flags)
//	clap jobs -dir D                   list the daemon's job journal states
//	clap bundle <prog.mc|bench> -o F   record locally, emit an uploadable
//	                                   clap-bundle/1 for POST /v1/jobs
//	clap top <url>                     poll a running daemon's /metrics and
//	                                   render a one-screen fleet summary
//	                                   (-interval D poll period, -once for a
//	                                   single snapshot)
//
// Exit codes: 0 on success; 1 when the pipeline or a required check fails
// (`stats -require` missing a span, `explain` on a failed solve — the
// verdict is still printed); 2 on usage errors (unknown subcommand, bad
// flag or argument).
//
// Flags (after the subcommand):
//
//	-model SC|TSO|PSO   memory model (default SC)
//	-seed N             first scheduler seed (default 0)
//	-seeds N            how many seeds to try when hunting (default 2000)
//	-input a,b,c        deterministic program inputs
//	-solver portfolio|par|cnf
//	                    solving strategy (default portfolio, the product
//	                    path: on SC recordings a 20 ms head start
//	                    enumerates schedules of up to 3 preemptions, then
//	                    cnf searches to the fewest, printing the attempt
//	                    trail); seq, the retired sequential search, runs
//	                    the portfolio
//	-timeout D          bound each phase's wall time (e.g. 30s, 2m);
//	                    interrupted phases report partial diagnostics
//	-o FILE             record: also write the crash-tolerant framed log;
//	                    timeline: write the Chrome trace-event JSON here
//	-json               races: emit the stable clap-races/1 JSON report
//	                    instead of the text listing
//	-witness            races: print each confirmed race's validated
//	                    witness schedule with the racing pair marked
//	-salvage            decodelog: recover the longest valid prefix from a
//	                    truncated or corrupt log instead of failing
//	-simplify           post-process the schedule to fewer preemptions
//	-cache DIR          reproduce/bench: reuse solved schedules from the
//	                    content-addressed cache at DIR, re-validated
//	                    before use (created if missing; clear with rm -rf)
//	-dump-constraints   print the constraint system after solving
//	-metrics-json FILE  write the pipeline's span tree and metric registry
//	                    as JSON (written even when the run fails)
//	-progress           print a periodic solver heartbeat to stderr
//	-require a,b,c      stats: fail unless each named span is in the report
//	-cpuprofile FILE    write a pprof CPU profile covering the whole
//	                    record/solve/replay pipeline
//	-memprofile FILE    write a pprof heap profile at exit (after a GC)
//	-trace FILE         write a runtime execution trace (go tool trace)
//	-v                  verbose
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/clapd"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/races"
	"repro/internal/replay"
	"repro/internal/simplify"
	"repro/internal/solver"
	"repro/internal/staticanalysis"
	"repro/internal/timeline"
	"repro/internal/trace"
	"repro/internal/vm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "clap:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks a bad invocation (unknown subcommand, malformed flag,
// wrong arguments) apart from a pipeline failure: usage exits 2 where
// failures exit 1, so scripts can tell "you called it wrong" from "it ran
// and failed".
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// usagef builds a usageError.
func usagef(format string, args ...any) error {
	return usageError{msg: fmt.Sprintf(format, args...)}
}

type flags struct {
	model    vm.MemModel
	seed     int64
	seeds    int64
	inputs   []int64
	solver   string
	timeout  time.Duration
	out      string
	jsonOut  bool
	witness  bool
	salvage  bool
	dump     bool
	simplify bool
	cacheDir string
	verbose  bool

	cpuprofile  string
	memprofile  string
	traceOut    string
	metricsJSON string
	progress    bool
	require     string

	// tr collects the pipeline's spans and metrics when -metrics-json or
	// -progress asked for them; nil otherwise (the pipeline records into
	// its own private trace and nothing is written).
	tr *obs.Trace
}

func parseFlags(args []string) (rest []string, f flags, err error) {
	f = flags{seeds: 2000}
	i := 0
	need := func(name string) (string, error) {
		i++
		if i >= len(args) {
			return "", fmt.Errorf("flag %s needs a value", name)
		}
		return args[i], nil
	}
	for ; i < len(args); i++ {
		switch a := args[i]; a {
		case "-model":
			v, err := need(a)
			if err != nil {
				return nil, f, err
			}
			switch strings.ToUpper(v) {
			case "SC":
				f.model = vm.SC
			case "TSO":
				f.model = vm.TSO
			case "PSO":
				f.model = vm.PSO
			default:
				return nil, f, fmt.Errorf("unknown model %q", v)
			}
		case "-seed":
			v, err := need(a)
			if err != nil {
				return nil, f, err
			}
			f.seed, err = strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, f, err
			}
		case "-cache":
			v, err := need(a)
			if err != nil {
				return nil, f, err
			}
			f.cacheDir = v
		case "-seeds":
			v, err := need(a)
			if err != nil {
				return nil, f, err
			}
			f.seeds, err = strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, f, err
			}
		case "-input":
			v, err := need(a)
			if err != nil {
				return nil, f, err
			}
			for _, part := range strings.Split(v, ",") {
				n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
				if err != nil {
					return nil, f, err
				}
				f.inputs = append(f.inputs, n)
			}
		case "-solver":
			v, err := need(a)
			if err != nil {
				return nil, f, err
			}
			f.solver = v
		case "-timeout":
			v, err := need(a)
			if err != nil {
				return nil, f, err
			}
			f.timeout, err = time.ParseDuration(v)
			if err != nil {
				return nil, f, err
			}
			if f.timeout <= 0 {
				return nil, f, fmt.Errorf("-timeout must be positive, got %v", f.timeout)
			}
		case "-o":
			v, err := need(a)
			if err != nil {
				return nil, f, err
			}
			f.out = v
		case "-cpuprofile":
			if f.cpuprofile, err = need(a); err != nil {
				return nil, f, err
			}
		case "-memprofile":
			if f.memprofile, err = need(a); err != nil {
				return nil, f, err
			}
		case "-trace":
			if f.traceOut, err = need(a); err != nil {
				return nil, f, err
			}
		case "-metrics-json":
			if f.metricsJSON, err = need(a); err != nil {
				return nil, f, err
			}
		case "-require":
			if f.require, err = need(a); err != nil {
				return nil, f, err
			}
		case "-json":
			f.jsonOut = true
		case "-witness":
			f.witness = true
		case "-progress":
			f.progress = true
		case "-salvage":
			f.salvage = true
		case "-dump-constraints":
			f.dump = true
		case "-simplify":
			f.simplify = true
		case "-v":
			f.verbose = true
		default:
			rest = append(rest, a)
		}
	}
	return rest, f, nil
}

func run(args []string) (err error) {
	if len(args) < 1 {
		return usagef("usage: clap run|record|reproduce|bench|vet|races|decodelog|stats|timeline|explain|serve|jobs|bundle ... (see the package docs for flags)")
	}
	cmd := args[0]
	rest, f, err := parseFlags(args[1:])
	if err != nil {
		return usagef("%v", err)
	}
	// All teardown is deferred here rather than in main so a failing
	// subcommand still flushes its profiles, trace and metrics: a crash
	// under -cpuprofile is exactly when the profile matters.
	stopProfiles, err := startProfiles(f)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()
	if f.metricsJSON != "" || f.progress {
		f.tr = obs.NewTrace("clap")
		defer func() {
			if f.metricsJSON == "" {
				return
			}
			data, mErr := f.tr.Report().Encode()
			if mErr == nil {
				mErr = os.WriteFile(f.metricsJSON, data, 0o644)
			}
			if mErr != nil && err == nil {
				err = mErr
			}
		}()
	}
	if f.progress {
		hopts := obs.HeartbeatOptions{Gauges: obs.ProgressGauges, Rates: obs.ProgressRates}
		if f.timeout > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), f.timeout)
			defer cancel()
			hopts.Ctx = ctx
		}
		hb := obs.StartHeartbeat(os.Stderr, f.tr.Reg(), hopts)
		// The closing summary goes out on success and error paths alike; the
		// deferred StopFinal also guarantees the ticker goroutine is gone
		// before main exits.
		defer func() {
			outcome := "ok"
			if err != nil {
				outcome = "error"
			}
			hb.StopFinal(f.tr, outcome)
		}()
	}
	switch cmd {
	case "run":
		return cmdRun(rest, f)
	case "record":
		return cmdRecord(rest, f)
	case "reproduce":
		return cmdReproduce(rest, f)
	case "bench":
		return cmdBench(rest, f)
	case "vet":
		return cmdVet(rest, f)
	case "races":
		return cmdRaces(rest, f)
	case "decodelog":
		return cmdDecodeLog(rest, f)
	case "stats":
		return cmdStats(rest, f)
	case "timeline":
		return cmdTimeline(rest, f)
	case "explain":
		return cmdExplain(rest, f)
	case "serve":
		return cmdServe(rest, f)
	case "jobs":
		return cmdJobs(rest, f)
	case "bundle":
		return cmdBundle(rest, f)
	case "top":
		return cmdTop(rest, f)
	default:
		return usagef("unknown subcommand %q", cmd)
	}
}

// startProfiles arms the requested profilers and returns the teardown
// that stops them and writes the heap profile. The CPU profile and
// execution trace cover the whole pipeline (record, solve, replay); the
// heap profile is written at exit after a GC so it reflects live memory,
// not transient garbage.
func startProfiles(f flags) (func() error, error) {
	var stops []func() error
	stopAll := func() error {
		var first error
		for _, stop := range stops {
			if err := stop(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	// A profiler that fails to start must not leak the ones already armed:
	// stop them before reporting, or a failed -trace would leave the CPU
	// profiler running with its file handle open and nothing to stop it.
	fail := func(err error) (func() error, error) {
		stopAll()
		return nil, err
	}
	if f.cpuprofile != "" {
		fp, err := os.Create(f.cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(fp); err != nil {
			fp.Close()
			return fail(err)
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return fp.Close()
		})
	}
	if f.traceOut != "" {
		fp, err := os.Create(f.traceOut)
		if err != nil {
			return fail(err)
		}
		if err := rtrace.Start(fp); err != nil {
			fp.Close()
			return fail(err)
		}
		stops = append(stops, func() error {
			rtrace.Stop()
			return fp.Close()
		})
	}
	if f.memprofile != "" {
		name := f.memprofile
		stops = append(stops, func() error {
			fp, err := os.Create(name)
			if err != nil {
				return err
			}
			defer fp.Close()
			runtime.GC()
			return pprof.WriteHeapProfile(fp)
		})
	}
	return stopAll, nil
}

func loadProgram(rest []string) (string, error) {
	if len(rest) != 1 {
		return "", usagef("expected exactly one program file")
	}
	src, err := os.ReadFile(rest[0])
	if err != nil {
		return "", err
	}
	return string(src), nil
}

func cmdRun(rest []string, f flags) error {
	src, err := loadProgram(rest)
	if err != nil {
		return err
	}
	prog, err := core.Compile(src)
	if err != nil {
		return err
	}
	rec, err := core.RecordSeed(prog, f.seed, core.RecordOptions{Model: f.model, Inputs: f.inputs})
	if err != nil {
		return err
	}
	for _, v := range rec.Run.Output {
		fmt.Println(v)
	}
	fmt.Printf("model=%s seed=%d threads=%d instructions=%d branches=%d SAPs=%d\n",
		f.model, f.seed, rec.Run.Threads, rec.Run.Instructions, rec.Run.Branches, rec.Run.VisibleEvents)
	if rec.Failure != nil {
		fmt.Printf("FAILURE: %s\n", rec.Failure)
	} else {
		fmt.Println("run completed cleanly")
	}
	return nil
}

func cmdRecord(rest []string, f flags) error {
	src, err := loadProgram(rest)
	if err != nil {
		return err
	}
	prog, err := core.Compile(src)
	if err != nil {
		return err
	}
	rec, err := core.Record(prog, core.RecordOptions{
		Model: f.model, Inputs: f.inputs, Seed: f.seed, SeedLimit: f.seeds,
		Deadline: f.timeout, Obs: f.tr,
	})
	if err != nil {
		return err
	}
	fmt.Printf("failure found with seed %d: %s\n", rec.Seed, rec.Failure)
	fmt.Printf("path log: %d threads, %d events, %d bytes encoded\n",
		len(rec.Log.Threads), rec.Log.EventCount(), rec.LogSize())
	if f.verbose {
		for _, tl := range rec.Log.Threads {
			fmt.Printf("  thread %d (parent %d, index %d): %d events\n",
				tl.Thread, tl.Parent, tl.Index, len(tl.Events))
		}
	}
	if f.out != "" {
		framed := rec.Log.EncodeFramed(trace.FramedOptions{})
		if err := os.WriteFile(f.out, framed, 0o644); err != nil {
			return err
		}
		fmt.Printf("framed log written to %s (%dB)\n", f.out, len(framed))
	}
	return nil
}

// cmdDecodeLog inspects a path-log file: strictly by default, leniently
// with -salvage (recovering the longest valid prefix of a damaged log).
func cmdDecodeLog(rest []string, f flags) error {
	if len(rest) != 1 {
		return usagef("usage: clap decodelog <log file> [-salvage] [-v]")
	}
	buf, err := os.ReadFile(rest[0])
	if err != nil {
		return err
	}
	var log *trace.PathLog
	if f.salvage {
		var rep *trace.SalvageReport
		log, rep = trace.DecodePathLogSalvage(buf)
		fmt.Println("salvage:", rep)
	} else if trace.IsFramed(buf) {
		if log, err = trace.DecodeFramedPathLog(buf); err != nil {
			return fmt.Errorf("%w (retry with -salvage to recover a prefix)", err)
		}
	} else {
		if log, err = trace.DecodePathLog(buf); err != nil {
			return err
		}
	}
	fmt.Printf("path log: %d threads, %d events\n", len(log.Threads), log.EventCount())
	if f.verbose {
		for _, tl := range log.Threads {
			fmt.Printf("  thread %d (parent %d, index %d): %d events, %d cuts\n",
				tl.Thread, tl.Parent, tl.Index, len(tl.Events), len(tl.Cuts))
		}
	}
	return nil
}

// cmdVet runs the static lockset / happens-before analysis on each
// program and prints its findings. Findings are diagnostics, not errors:
// vet exits zero unless a program fails to load or compile, so it can
// sweep a directory of intentionally racy examples.
func cmdVet(rest []string, f flags) error {
	if len(rest) == 0 {
		return usagef("usage: clap vet <prog.mc>... [-v]")
	}
	for i, name := range rest {
		src, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		prog, err := core.Compile(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if len(rest) > 1 {
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("== %s ==\n", name)
		}
		res := staticanalysis.Analyze(prog)
		fmt.Print(res.Render())
		if f.verbose {
			fmt.Printf("%s\n", res.ComputeStats())
		}
	}
	return nil
}

// cmdRaces runs the predictive race detector: record one execution
// (hunting a failure first — the mutual-exclusion benchmarks only touch
// their racy state on a failing schedule — and falling back to a clean
// seed run), then analyze every conflicting access pair for
// solver-checked adjacency. Demotion is disabled so every shared access
// appears as a SAP the analysis can see.
func cmdRaces(rest []string, f flags) error {
	src, name, f, err := resolveTarget(rest, f, "usage: clap races <prog.mc|benchmark> [-json] [-witness] [flags]")
	if err != nil {
		return err
	}
	prog, err := core.Compile(src)
	if err != nil {
		return err
	}
	ropts := core.RecordOptions{
		Model: f.model, Inputs: f.inputs, Seed: f.seed, SeedLimit: f.seeds,
		Deadline: f.timeout, NoDemote: true, Obs: f.tr,
	}
	rec, err := core.Record(prog, ropts)
	if err != nil {
		var nf *core.NoFailureError
		if !errors.As(err, &nf) {
			return err
		}
		// No failing schedule: analyze a clean recorded execution instead.
		if rec, err = core.RecordSeed(prog, f.seed, ropts); err != nil {
			return err
		}
	}
	rep, err := rec.DetectRaces(races.Options{Deadline: f.timeout}, f.tr)
	if err != nil {
		return err
	}
	if f.jsonOut {
		data, err := rep.MarshalReport(races.Meta{Program: name, Model: f.model.String(), Seed: rec.Seed})
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	fmt.Print(rep.Render())
	if f.witness {
		for _, fd := range rep.Confirmed() {
			fmt.Print(renderWitness(rep, fd))
		}
	}
	return nil
}

// renderWitness prints a confirmed race's validated schedule, one SAP per
// line, with the racing pair marked. The schedule around the pair is what
// matters, so the listing is windowed to it.
func renderWitness(rep *races.Report, fd races.Finding) string {
	var b strings.Builder
	fmt.Fprintf(&b, "witness for %s (%s):\n", fd.Var, fd.How)
	order := fd.Witness.Order
	at := -1
	for i, r := range order {
		if r == fd.A.SAP || r == fd.B.SAP {
			at = i
			break
		}
	}
	lo, hi := 0, len(order)
	const window = 4
	if at >= 0 {
		if at-window > lo {
			lo = at - window
		}
		if at+window+2 < hi {
			hi = at + window + 2
		}
	}
	if lo > 0 {
		fmt.Fprintf(&b, "  ... %d earlier\n", lo)
	}
	for i := lo; i < hi; i++ {
		r := order[i]
		mark := "  "
		if r == fd.A.SAP || r == fd.B.SAP {
			mark = "* "
		}
		fmt.Fprintf(&b, "  %s[%3d] %s\n", mark, i, rep.Sys.SAP(r))
	}
	if hi < len(order) {
		fmt.Fprintf(&b, "  ... %d later\n", len(order)-hi)
	}
	return b.String()
}

func cmdReproduce(rest []string, f flags) error {
	src, err := loadProgram(rest)
	if err != nil {
		return err
	}
	return reproduceSource(src, f)
}

func cmdBench(rest []string, f flags) error {
	if len(rest) != 1 {
		names := ""
		for _, b := range bench.All() {
			names += " " + b.Name
		}
		return usagef("usage: clap bench <name>; available:%s", names)
	}
	b, ok := bench.ByName(rest[0])
	if !ok {
		return usagef("unknown benchmark %q", rest[0])
	}
	f.model = b.Model
	f.inputs = b.Inputs
	f.seeds = b.SeedLimit
	fmt.Printf("benchmark %s: %s\n", b.Name, b.Description)
	return reproduceSource(b.Source, f)
}

// solverKind maps the -solver flag to a core.SolverKind by clapd's table
// of solver names, the one a bundle's solver field goes through.
func solverKind(name string) (core.SolverKind, error) {
	k, err := clapd.SolverKind(name)
	if err != nil {
		return 0, usagef("%v", err)
	}
	return k, nil
}

func reproduceSource(src string, f flags) error {
	kind, err := solverKind(f.solver)
	if err != nil {
		return err
	}
	prog, err := core.Compile(src)
	if err != nil {
		return err
	}
	rec, err := core.Record(prog, core.RecordOptions{
		Model: f.model, Inputs: f.inputs, Seed: f.seed, SeedLimit: f.seeds,
		Deadline: f.timeout, Obs: f.tr,
	})
	if err != nil {
		return err
	}
	fmt.Printf("recorded failure (seed %d, model %s): %s\n", rec.Seed, f.model, rec.Failure)
	fmt.Printf("  path log %dB; run: %d instructions, %d branches, %d SAPs\n",
		rec.LogSize(), rec.Run.Instructions, rec.Run.Branches, rec.Run.VisibleEvents)
	if f.verbose && rec.Static != nil {
		fmt.Printf("  %s\n", rec.Static.ComputeStats())
	}

	// Replay runs separately below so -simplify can shrink the schedule
	// between solving and the final deterministic replay.
	ropts := core.ReproduceOptions{
		Solver:     kind,
		Deadline:   f.timeout,
		SkipReplay: true,
		Obs:        f.tr,
	}
	if f.cacheDir != "" {
		cache, err := core.OpenDiskCache(f.cacheDir)
		if err != nil {
			return err
		}
		ropts.Cache = cache
	}
	rep, rerr := core.Reproduce(rec, ropts)
	if rep != nil {
		fmt.Printf("constraints: %s\n", rep.Stats)
		if f.verbose && rep.System != nil && rep.System.Pre != nil {
			fmt.Printf("  %s\n", rep.System.Pre)
		}
		if f.dump && rep.System != nil {
			fmt.Println(rep.System.Formula())
		}
		if kind == core.Portfolio || f.verbose {
			for _, a := range rep.Attempts {
				fmt.Printf("  attempt %s\n", a)
			}
		}
	}
	if rerr != nil {
		return rerr
	}
	switch {
	case rep.Parallel != nil && kind == core.Parallel:
		fmt.Printf("  parallel solver: generated %d, valid %d, bound %d, %.3fs\n",
			rep.Parallel.Generated, rep.Parallel.Valid, rep.Parallel.Bound, rep.Parallel.Elapsed.Seconds())
	case rep.CNFStats != nil && kind == core.CNF:
		st := rep.CNFStats
		fmt.Printf("  cnf solver: %d bool vars, %d clauses; %d order rejections, %d address splits, %d value checks, %d descents\n",
			st.BoolVars, st.Clauses, st.LazyRounds, st.AddrRounds, st.TheoryRounds, st.Descents)
	}

	sol := rep.Solution
	if f.simplify {
		res, err := simplify.Simplify(rep.System, sol.Order, simplify.Options{})
		if err != nil {
			return err
		}
		if res.After < sol.Preemptions {
			fmt.Printf("  simplifier: %d -> %d preemptions (%d moves)\n", res.Before, res.After, res.Moves)
			sol = &solver.Solution{Order: res.Order, Witness: res.Witness, Preemptions: res.After}
			rep.Solution = sol
		}
	}
	fmt.Printf("schedule: %d SAPs, %d preemptive context switches\n", len(sol.Order), sol.Preemptions)
	if f.verbose {
		for i, ref := range sol.Order {
			fmt.Printf("  %3d %s\n", i, rep.System.SAP(ref))
		}
	}

	out, err := rep.Replay(replay.Options{
		Mode: replay.ModeFor(f.model), Inputs: f.inputs, Deadline: f.timeout,
	})
	if err != nil {
		return err
	}
	if !out.Reproduced {
		return fmt.Errorf("replay did not reproduce the failure: %v", out.Failure)
	}
	fmt.Printf("replay: bug reproduced deterministically (%s mode, %d events verified)\n",
		replay.ModeFor(f.model), out.EventsMatched)
	return nil
}

// cmdStats pretty-prints a -metrics-json report: the span tree with
// durations and attributes, then the counters and gauges sorted by name.
// With -require a,b,c it exits nonzero unless every named span is present,
// which is how `make ci` smoke-tests the metrics pipeline.
func cmdStats(rest []string, f flags) error {
	if len(rest) != 1 {
		return usagef("usage: clap stats <metrics.json> [-require span,span,...]")
	}
	data, err := os.ReadFile(rest[0])
	if err != nil {
		return err
	}
	rep, err := obs.DecodeReport(data)
	if err != nil {
		return err
	}
	rep.Render(os.Stdout)
	if f.require != "" {
		var missing []string
		for _, name := range strings.Split(f.require, ",") {
			name = strings.TrimSpace(name)
			if name != "" && rep.Span(name) == nil {
				missing = append(missing, name)
			}
		}
		if len(missing) > 0 {
			return fmt.Errorf("report is missing required spans: %s", strings.Join(missing, ", "))
		}
	}
	return nil
}

// resolveTarget loads the single program argument shared by the timeline
// and explain subcommands: a built-in benchmark name, or a mini-language
// source file. Benchmark targets adopt the benchmark's model, inputs and
// seed budget, like `clap bench`.
func resolveTarget(rest []string, f flags, usage string) (src, name string, out flags, err error) {
	if len(rest) != 1 {
		return "", "", f, usagef("%s", usage)
	}
	if b, ok := bench.ByName(rest[0]); ok {
		f.model = b.Model
		f.inputs = b.Inputs
		f.seeds = b.SeedLimit
		return b.Source, b.Name, f, nil
	}
	data, err := os.ReadFile(rest[0])
	if err != nil {
		return "", "", f, err
	}
	return string(data), rest[0], f, nil
}

// flightPipeline records a failure and reproduces it with the flight
// recorder's capture hook armed: the replay's visible events are
// collected for the timeline's replay lane. A non-nil Reproduction may
// come back alongside an error — the partial pipeline is exactly what
// timeline/explain want to look at.
func flightPipeline(src string, f flags, skipReplay bool) (*core.Reproduction, error) {
	kind, err := solverKind(f.solver)
	if err != nil {
		return nil, err
	}
	prog, err := core.Compile(src)
	if err != nil {
		return nil, err
	}
	rec, err := core.Record(prog, core.RecordOptions{
		Model: f.model, Inputs: f.inputs, Seed: f.seed, SeedLimit: f.seeds,
		Deadline: f.timeout, Obs: f.tr,
	})
	if err != nil {
		return nil, err
	}
	return core.Reproduce(rec, core.ReproduceOptions{
		Solver:        kind,
		Deadline:      f.timeout,
		SkipReplay:    skipReplay,
		CaptureReplay: true,
		Obs:           f.tr,
	})
}

// cmdTimeline runs the full pipeline and writes the flight-recorder
// timeline: the recorded interleaving, the solved schedule with race-flip
// arrows, and the replay capture. With -o the artifact is Chrome
// trace-event JSON (validated before writing, linked from the metrics
// report); without it an ASCII rendering goes to stdout. A failed solve
// still writes what exists — the recorded lane — and then reports the
// failure.
func cmdTimeline(rest []string, f flags) error {
	src, name, f, err := resolveTarget(rest, f, "usage: clap timeline <prog.mc|benchmark> [-o FILE] [flags]")
	if err != nil {
		return err
	}
	rep, perr := flightPipeline(src, f, false)
	if rep == nil {
		return perr
	}
	tl, err := rep.BuildTimeline(name)
	if err != nil {
		return err
	}
	if f.out != "" {
		data, err := timeline.EncodeChrome(tl)
		if err != nil {
			return err
		}
		if err := timeline.Validate(data); err != nil {
			return err
		}
		if err := os.WriteFile(f.out, data, 0o644); err != nil {
			return err
		}
		f.tr.AddArtifact("timeline", f.out)
		fmt.Printf("timeline: %d lanes written to %s (%dB); load in Perfetto or chrome://tracing\n",
			len(tl.Execs), f.out, len(data))
	} else {
		timeline.RenderASCII(os.Stdout, tl)
	}
	return perr
}

// cmdExplain runs record and solve, then explains the result. A solved
// reproduction gets the schedule diff: the conflicting SAP pairs whose
// order the solver reversed relative to the recorded interleaving — the
// race flips — plus the reads whose last writer changed. A failed solve
// gets the minimal-unsat-subset verdict instead, and explain exits 1
// (the verdict is printed either way).
func cmdExplain(rest []string, f flags) error {
	src, name, f, err := resolveTarget(rest, f, "usage: clap explain <prog.mc|benchmark> [flags]")
	if err != nil {
		return err
	}
	rep, perr := flightPipeline(src, f, true)
	if rep == nil {
		return perr
	}
	fmt.Printf("explain %s (seed %d, model %s):\n", name, rep.Recording.Seed, f.model)
	if rep.Solution != nil {
		d, err := rep.ScheduleDiff()
		if err != nil {
			return err
		}
		d.Render(os.Stdout)
		return perr
	}
	if perr != nil {
		fmt.Printf("solve failed: %v\n", perr)
	}
	verdict, err := rep.ExplainUnsat()
	if err != nil {
		return err
	}
	verdict.Render(os.Stdout)
	return perr
}
