// Package core wires CLAP's phases into the end-to-end pipeline of
// Figure 1 of the paper:
//
//	record (thread-local paths) → decode → symbolic execution →
//	constraint encoding → solving (sequential or parallel) → replay.
//
// It is the library's primary entry point: give it a mini-language program
// and it produces a recording of a failing execution, a constraint system,
// a bug-reproducing schedule with (heuristically) minimal preemptions, and
// a verified deterministic replay. The top-level clap package re-exports
// this API.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/ballarus"
	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/parsolve"
	"repro/internal/replay"
	"repro/internal/solver"
	"repro/internal/staticanalysis"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/vm"
)

// RecordOptions configures the record phase.
type RecordOptions struct {
	// Model is the simulated memory model of the production run.
	Model vm.MemModel
	// Inputs are the deterministic program inputs.
	Inputs []int64
	// Seed seeds the bug-hunting scheduler; when SeedLimit > 0, seeds
	// Seed..Seed+SeedLimit-1 are tried until an assertion fails (the
	// paper's "ran it many times until the bug occurred").
	Seed      int64
	SeedLimit int64
	// Chaos and DrainBias tune the random scheduler (see vm.RandomScheduler).
	Chaos     int
	DrainBias int
	// MaxActions bounds each attempt.
	MaxActions int
	// Ctx cancels the bug hunt between attempts (nil = never).
	Ctx context.Context
	// Deadline bounds the hunt's wall time (0 = none). An interrupted hunt
	// returns the best recording found so far, or a *NoFailureError that
	// reports how far it got.
	Deadline time.Duration
	// NoDemote keeps every shared access a scheduling point. By default
	// the recorder demotes accesses to globals the static lockset /
	// happens-before analysis proves race-free (staticanalysis.Demotable):
	// they keep full shared-memory semantics and stay in the path log,
	// but stop being preemption points and visible events, shrinking the
	// recorded trace and the scheduler's search space.
	NoDemote bool
	// Obs, when set, records the hunt as a "record" span (one
	// "record.level" child per chaos level) and publishes the record.*
	// counters to the trace's registry. Nil records nothing.
	Obs *obs.Trace
}

// LevelStats reports one chaos level's share of a bug hunt.
type LevelStats struct {
	// Chaos is the scheduler chaos level swept.
	Chaos int
	// Seeds is how many schedules were executed at this level.
	Seeds int
	// Livelocked counts runs that hit the action budget without failing.
	Livelocked int
	// Failures counts runs that ended in an assertion failure.
	Failures int
}

// NoFailureError reports a bug hunt that found no assertion failure,
// with the per-chaos-level breakdown of what was tried.
type NoFailureError struct {
	Seed      int64
	SeedLimit int64
	Levels    []LevelStats
	// Interrupted reports that the hunt was cut short by Ctx or Deadline
	// rather than exhausting its seeds.
	Interrupted bool
}

func (e *NoFailureError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: no assertion failure in %d seeds starting at %d", e.SeedLimit, e.Seed)
	if e.Interrupted {
		b.WriteString(" (hunt interrupted)")
	}
	for _, l := range e.Levels {
		fmt.Fprintf(&b, "; chaos %d: %d run, %d livelocked", l.Chaos, l.Seeds, l.Livelocked)
	}
	return b.String()
}

// Recording is a recorded failing execution: the CLAP log plus everything
// needed for the offline phases.
type Recording struct {
	Prog    *ir.Program
	Model   vm.MemModel
	Inputs  []int64
	Sharing *escape.Result
	// Static is the lockset / happens-before analysis result; its Must
	// map stamps SAPs with locksets during symbolic execution, and its
	// Demotable verdicts drove the recorder's access demotion.
	Static  *staticanalysis.Result
	Paths   []*ballarus.FuncPaths
	Log     *trace.PathLog
	Failure *vm.Failure
	Run     *vm.Result
	// Seed is the scheduler seed that triggered the failure.
	Seed int64
	// Chaos, DrainBias, MaxActions and Demoted pin the winning attempt's
	// effective scheduler configuration, so CaptureEvents can re-run the
	// seed bit-identically. (CLAP records no global order — the recorded
	// interleaving is reconstructed, not stored.)
	Chaos      int
	DrainBias  int
	MaxActions int
	Demoted    []bool
}

// CaptureEvents reconstructs the recorded run's global interleaving by
// re-executing the winning seed under the identical deterministic
// scheduler configuration and collecting the visible events (with their
// logical timestamps). It verifies the re-run reaches the same failure;
// a divergence means the recording's configuration was tampered with and
// is reported as an error rather than a wrong timeline.
func (r *Recording) CaptureEvents() ([]vm.VisibleEvent, error) {
	sched := vm.NewRandomScheduler(r.Seed)
	if r.Chaos > 0 {
		sched.Chaos = r.Chaos
	}
	if r.DrainBias > 0 {
		sched.DrainBias = r.DrainBias
	}
	var events []vm.VisibleEvent
	machine, err := vm.New(r.Prog, vm.Config{
		Model:        r.Model,
		Inputs:       r.Inputs,
		MaxActions:   r.MaxActions,
		Sched:        sched,
		Shared:       r.Sharing.Shared,
		Demoted:      r.Demoted,
		PathRecorder: &vm.PathRecorder{Paths: r.Paths, Log: &trace.PathLog{}},
		OnVisible:    func(ev vm.VisibleEvent) { events = append(events, ev) },
	})
	if err != nil {
		return nil, err
	}
	res, err := machine.Run()
	if err != nil {
		return nil, fmt.Errorf("core: recorded-run capture diverged: %w", err)
	}
	if r.Failure != nil {
		f := res.Failure
		if f == nil || f.Kind != r.Failure.Kind || f.Thread != r.Failure.Thread || f.Site != r.Failure.Site {
			return nil, fmt.Errorf("core: recorded-run capture diverged: recorded %v, re-run %v", r.Failure, f)
		}
	}
	return events, nil
}

// Compile parses, checks and lowers a mini-language source program.
func Compile(src string) (*ir.Program, error) { return ir.CompileSource(src) }

// Record runs the program under seeded random schedules until an assertion
// fails, recording only thread-local paths (no shared-memory dependencies,
// no values, no synchronization added — CLAP's phase 1).
//
// When Chaos is unset, seeds are swept with a ladder of scheduler chaos
// levels, collecting a few failing candidates per level, and the recording
// with the fewest shared access points wins. Small failing traces are what
// production failures look like, and they give the offline solver the
// easiest constraint systems: gentle scheduling minimizes preemptions for
// data-race bugs, while aggressive scheduling ends spin loops early for
// the mutual-exclusion bugs — sampling both and keeping the smallest
// handles either shape. (The paper's record phase similarly retries with
// inserted timing delays until a good failing run appears.)
func Record(prog *ir.Program, opts RecordOptions) (*Recording, error) {
	if opts.SeedLimit <= 0 {
		opts.SeedLimit = 1
	}
	ladder := []int{opts.Chaos}
	if opts.Chaos == 0 {
		ladder = []int{5, 15, 40, 70}
	}
	const perLevel = 3
	var best *Recording
	// The static analyses are per-program: hoist them out of the seed loop.
	sharing := escape.Analyze(prog)
	static := staticanalysis.Analyze(prog)
	paths, err := ballarus.ProgramPaths(prog)
	if err != nil {
		return nil, err
	}
	var deadline time.Time
	if opts.Deadline > 0 {
		deadline = time.Now().Add(opts.Deadline)
	}
	if opts.Ctx != nil {
		if d, ok := opts.Ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
			deadline = d
		}
	}
	sp := opts.Obs.Root().Start("record")
	defer endStage(opts.Obs.Reg(), "record", sp)
	var levels []LevelStats
	interrupted := false
hunt:
	for _, chaos := range ladder {
		attempt := opts
		attempt.Chaos = chaos
		ls := LevelStats{Chaos: chaos}
		lsp := sp.Start("record.level")
		lsp.SetInt("chaos", int64(chaos))
		found := 0
		for s := opts.Seed; s < opts.Seed+opts.SeedLimit && found < perLevel; s++ {
			if huntInterrupted(opts.Ctx, deadline) {
				interrupted = true
				levels = append(levels, ls)
				endLevel(lsp, ls)
				break hunt
			}
			ls.Seeds++
			rec, err := recordSeed(prog, s, attempt, sharing, static, paths)
			if err != nil {
				if errors.Is(err, vm.ErrActionBudget) {
					ls.Livelocked++
					continue // a livelocked seed is just an uninteresting run
				}
				lsp.SetAttr("err", err.Error())
				endLevel(lsp, ls)
				return nil, err
			}
			if rec.Failure == nil || rec.Failure.Kind != vm.FailAssert {
				continue
			}
			ls.Failures++
			found++
			if best == nil || rec.Run.VisibleEvents < best.Run.VisibleEvents {
				best = rec
			}
		}
		levels = append(levels, ls)
		endLevel(lsp, ls)
	}
	emitRecordCounters(opts.Obs.Reg(), levels, best)
	if best != nil {
		// An interrupted hunt that already has a failing run degrades
		// gracefully: the candidate pool is merely smaller.
		sp.SetInt("seed", best.Seed)
		return best, nil
	}
	sp.SetAttr("err", "no assertion failure found")
	return nil, &NoFailureError{
		Seed:        opts.Seed,
		SeedLimit:   opts.SeedLimit,
		Levels:      levels,
		Interrupted: interrupted,
	}
}

// endLevel stamps one chaos level's stats onto its span and closes it.
func endLevel(lsp *obs.Span, ls LevelStats) {
	lsp.SetInt("seeds", int64(ls.Seeds))
	lsp.SetInt("livelocked", int64(ls.Livelocked))
	lsp.SetInt("failures", int64(ls.Failures))
	lsp.End()
}

// huntInterrupted reports whether the record-phase budget has run out.
func huntInterrupted(ctx context.Context, deadline time.Time) bool {
	if ctx != nil {
		select {
		case <-ctx.Done():
			return true
		default:
		}
	}
	return !deadline.IsZero() && time.Now().After(deadline)
}

// RecordSeed runs exactly one recording attempt with the given seed.
func RecordSeed(prog *ir.Program, seed int64, opts RecordOptions) (*Recording, error) {
	sharing := escape.Analyze(prog)
	static := staticanalysis.Analyze(prog)
	paths, err := ballarus.ProgramPaths(prog)
	if err != nil {
		return nil, err
	}
	return recordSeed(prog, seed, opts, sharing, static, paths)
}

// demotedGlobals marks the shared globals whose accesses the recorder may
// demote from scheduling points: those the lockset / happens-before
// analysis proves free of concurrent conflicting access. Returns nil when
// nothing is demotable (the common case for racy programs), so the VM's
// fast path stays unchanged.
func demotedGlobals(sharing *escape.Result, static *staticanalysis.Result) []bool {
	var out []bool
	for g, sh := range sharing.Shared {
		if sh && static.Demotable[g] {
			if out == nil {
				out = make([]bool, len(sharing.Shared))
			}
			out[g] = true
		}
	}
	return out
}

// recordSeed is RecordSeed with the per-program analyses precomputed.
func recordSeed(prog *ir.Program, seed int64, opts RecordOptions, sharing *escape.Result, static *staticanalysis.Result, paths []*ballarus.FuncPaths) (*Recording, error) {
	pathRec := &vm.PathRecorder{Paths: paths, Log: &trace.PathLog{}}
	sched := vm.NewRandomScheduler(seed)
	if opts.Chaos > 0 {
		sched.Chaos = opts.Chaos
	}
	if opts.DrainBias > 0 {
		sched.DrainBias = opts.DrainBias
	}
	var demoted []bool
	if !opts.NoDemote {
		demoted = demotedGlobals(sharing, static)
	}
	machine, err := vm.New(prog, vm.Config{
		Model:        opts.Model,
		Inputs:       opts.Inputs,
		MaxActions:   opts.MaxActions,
		Sched:        sched,
		Shared:       sharing.Shared,
		Demoted:      demoted,
		PathRecorder: pathRec,
	})
	if err != nil {
		return nil, err
	}
	res, err := machine.Run()
	if err != nil {
		return nil, err
	}
	return &Recording{
		Prog:       prog,
		Model:      opts.Model,
		Inputs:     opts.Inputs,
		Sharing:    sharing,
		Static:     static,
		Paths:      pathRec.Paths,
		Log:        pathRec.Log,
		Failure:    res.Failure,
		Run:        res,
		Seed:       seed,
		Chaos:      sched.Chaos,
		DrainBias:  sched.DrainBias,
		MaxActions: opts.MaxActions,
		Demoted:    demoted,
	}, nil
}

// LogSize returns the encoded size of the CLAP path log in bytes.
func (r *Recording) LogSize() int { return r.Log.Size() }

// Analyze runs symbolic execution along the recorded paths and encodes the
// constraint system F = Fpath ∧ Fbug ∧ Fso ∧ Frw ∧ Fmo.
func (r *Recording) Analyze() (*constraints.System, error) {
	if r.Failure == nil || r.Failure.Kind != vm.FailAssert {
		return nil, fmt.Errorf("core: recording holds no assertion failure to reproduce")
	}
	var locks map[ir.Instr]ir.LockSet
	if r.Static != nil {
		locks = r.Static.Must
	}
	an, err := symexec.Analyze(r.Prog, r.Paths, r.Log, symexec.Options{
		Shared: r.Sharing.Shared,
		Inputs: r.Inputs,
		Locks:  locks,
		Failure: symexec.FailureSpec{
			Thread: r.Failure.Thread,
			Site:   r.Failure.Site,
		},
	})
	if err != nil {
		return nil, err
	}
	return constraints.Build(an, r.Model)
}

// SolverKind selects the solving strategy.
type SolverKind uint8

// Solver kinds.
const (
	// Sequential is the decision-procedure solver with minimal-preemption
	// iteration (internal/solver).
	Sequential SolverKind = iota
	// Parallel is the generate-and-validate worker pool (internal/parsolve).
	Parallel
	// CNF is the SAT encoding with a CDCL core (internal/cnfsolver).
	CNF
	// Portfolio runs Sequential for a short head start, then CNF with the
	// rest of the budget, then Sequential again if CNF failed before the
	// deadline, on the caller's goroutine (see portfolio.go). It records a
	// per-attempt trail; a panic or injected fault in one step degrades to
	// the next instead of killing the pipeline.
	Portfolio
)

// String names the kind for traces and CLI output.
func (k SolverKind) String() string {
	switch k {
	case Sequential:
		return "sequential"
	case Parallel:
		return "parallel"
	case CNF:
		return "cnf"
	case Portfolio:
		return "portfolio"
	}
	return fmt.Sprintf("solverkind(%d)", uint8(k))
}

// ReproduceOptions configures the offline phases.
type ReproduceOptions struct {
	Solver SolverKind
	// Sequential solver tuning.
	SeqOptions solver.Options
	// Parallel solver tuning.
	ParOptions parsolve.Options
	// CNF solver tuning.
	CNFOptions cnfsolver.Options
	// SkipReplay computes the schedule without the final replay run.
	SkipReplay bool
	// CaptureReplay collects the replay's visible events into
	// Outcome.Events — the replay lane of the flight-recorder timeline.
	CaptureReplay bool
	// Cache, when set, is the content-addressed artifact cache: the
	// preprocessing snapshot and the solved schedule are loaded from (and
	// stored to) it under CacheKey. Cached schedules are re-validated
	// against the freshly built system before being trusted, so a stale
	// entry degrades to a normal solve rather than a wrong answer. Hits
	// and misses are counted as core.cache.{hit,miss}.
	Cache *DiskCache
	// CacheKey addresses this recording's artifacts in Cache; empty means
	// Recording.ContentKey(). clapd passes its bundle digest so the
	// daemon's dedupe and the cache share one address space.
	CacheKey string
	// Ctx cancels the offline phases (nil = never).
	Ctx context.Context
	// Deadline bounds the whole offline pipeline (0 = none). The remaining
	// budget is threaded through solving and replay; per-solver deadlines
	// in SeqOptions etc. still apply and the earliest bound wins.
	Deadline time.Duration
	// Obs, when set, is the trace the pipeline's spans and metrics attach
	// to (typically shared with RecordOptions.Obs so one report covers the
	// whole run). When nil, Reproduce still builds a private trace — the
	// phase-timing accessors on Reproduction are derived from it.
	Obs *obs.Trace
}

// Reproduction is the end-to-end result for one recorded failure.
type Reproduction struct {
	Recording *Recording
	System    *constraints.System
	Stats     constraints.Stats
	Solution  *solver.Solution
	// Parallel holds the parallel-solver statistics when that solver ran.
	Parallel *parsolve.Result
	// SeqStats holds the sequential-solver statistics when that solver ran.
	SeqStats *solver.Stats
	// CNFStats holds the CNF-solver statistics when that solver ran.
	CNFStats *cnfsolver.Stats
	// Attempts is the per-solver attempt trail: which solvers ran, how
	// long each took, and why the pipeline moved on. Always populated.
	Attempts []SolverAttempt
	// Outcome is the replay verdict (nil when SkipReplay).
	Outcome *replay.Outcome
	// Trace is the observability record of the pipeline: one span per
	// phase (symexec, preprocess, solve with a child per solver attempt,
	// replay), plus the consolidated metric registry. Always populated by
	// Reproduce — with ReproduceOptions.Obs when given, else privately.
	Trace *obs.Trace
}

// SymbolicTime reports the symbolic-execution phase's wall time (Table 1's
// time columns), derived from the trace's "symexec" span.
func (r *Reproduction) SymbolicTime() time.Duration { return r.phase("symexec") }

// SolveTime reports the constraint-solving phase's wall time.
func (r *Reproduction) SolveTime() time.Duration { return r.phase("solve") }

// ReplayTime reports the replay phase's wall time (zero when SkipReplay).
func (r *Reproduction) ReplayTime() time.Duration { return r.phase("replay") }

func (r *Reproduction) phase(name string) time.Duration {
	if r == nil || r.Trace == nil {
		return 0
	}
	return r.Trace.Root().Find(name).Duration()
}

// Reproduce runs the offline pipeline on a recording.
//
// On failure it returns the partial Reproduction alongside the error
// whenever any diagnostics exist (constraint stats, solver attempts,
// partial search statistics), so an interrupted or failed solve still
// tells the caller what was tried and how far each stage got.
func Reproduce(rec *Recording, opts ReproduceOptions) (*Reproduction, error) {
	tr := opts.Obs
	if tr == nil {
		// A private trace keeps the phase-timing accessors working for
		// callers that never asked for observability.
		tr = obs.NewTrace("clap")
	}
	rep := &Reproduction{Recording: rec, Trace: tr}
	var deadline time.Time
	if opts.Deadline > 0 {
		deadline = time.Now().Add(opts.Deadline)
	}
	if opts.Ctx != nil {
		if d, ok := opts.Ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
			deadline = d
		}
	}
	ssp := tr.Root().Start("symexec")
	sys, err := rec.Analyze()
	if err != nil {
		ssp.SetAttr("err", err.Error())
		endStage(tr.Reg(), "symexec", ssp)
		return nil, err
	}
	endStage(tr.Reg(), "symexec", ssp)
	rep.System = sys
	rep.Stats = sys.ComputeStats()
	emitConstraintStats(tr.Reg(), rep.Stats)
	cacheKey := ""
	if opts.Cache != nil {
		if cacheKey = opts.CacheKey; cacheKey == "" {
			cacheKey = rec.ContentKey()
		}
	}
	psp := tr.Root().Start("preprocess")
	applied := false
	if opts.Cache != nil {
		if snap := opts.Cache.LoadPreprocess(cacheKey); snap != nil && sys.ApplySnapshot(snap) {
			tr.Reg().Counter("core.cache.hit").Add(1)
			psp.SetAttr("cache", "hit")
			emitPreStats(tr.Reg(), sys.Pre)
			applied = true
		}
	}
	if !applied {
		emitPreStats(tr.Reg(), sys.PreprocessObs(psp))
		if opts.Cache != nil {
			tr.Reg().Counter("core.cache.miss").Add(1)
			opts.Cache.StorePreprocess(cacheKey, sys.Snapshot())
		}
	}
	endStage(tr.Reg(), "preprocess", psp)

	slv := tr.Root().Start("solve")
	slv.SetAttr("kind", opts.Solver.String())
	var sol *solver.Solution
	err = nil
	if opts.Cache != nil {
		sol = cachedSolve(rep, sys, opts.Cache, cacheKey, slv)
	}
	if sol == nil {
		sol, err = solveStage(rep, sys, opts, deadline, slv)
		if sol != nil && opts.Cache != nil {
			opts.Cache.StoreSchedule(cacheKey, sol.Order, solvedBy(rep.Attempts))
		}
	}
	emitSolveSummary(tr.Reg(), rep.Attempts, sol)
	if sol == nil {
		if err != nil {
			slv.SetAttr("err", err.Error())
		}
		endStage(tr.Reg(), "solve", slv)
		return rep, err
	}
	slv.SetInt("preemptions", int64(sol.Preemptions))
	endStage(tr.Reg(), "solve", slv)
	rep.Solution = sol

	if !opts.SkipReplay {
		ropts := replay.Options{
			Mode:    replay.ModeFor(rec.Model),
			Inputs:  rec.Inputs,
			Ctx:     opts.Ctx,
			Capture: opts.CaptureReplay,
		}
		if !deadline.IsZero() {
			ropts.Deadline = time.Until(deadline)
			if ropts.Deadline <= 0 {
				ropts.Deadline = time.Nanosecond
			}
		}
		out, err := rep.Replay(ropts)
		if err != nil {
			return rep, err
		}
		if !out.Reproduced {
			return rep, fmt.Errorf("core: replay did not reproduce the failure (got %v)", out.Failure)
		}
	}
	return rep, nil
}

// solveStage dispatches to the selected solver, growing rep.Attempts and
// the per-stage stats as it goes; every attempt becomes a child span of sp.
func solveStage(rep *Reproduction, sys *constraints.System, opts ReproduceOptions, deadline time.Time, sp *obs.Span) (*solver.Solution, error) {
	var sol *solver.Solution
	var att SolverAttempt
	switch opts.Solver {
	case Sequential:
		sol, att = seqStage(rep, sys, seqOptions(opts, deadline), sp)
	case Parallel:
		reg := rep.Trace.Reg()
		parOpts := parOptions(opts, deadline)
		wireProgress(reg, nil, &parOpts, nil)
		sol, att = runSolverStage(reg, "parallel", sp, func() (*solver.Solution, int, error) {
			res, err := parsolve.Solve(sys, parOpts)
			rep.Parallel = res
			emitParResult(reg, res)
			if err != nil {
				return nil, -1, err
			}
			if !res.Found() {
				return nil, res.Bound, parallelFailure(res)
			}
			return bestSolution(res), res.Bound, nil
		})
	case CNF:
		sol, att = cnfStage(rep, sys, cnfOptions(opts, deadline), sp)
	case Portfolio:
		sol, attempts, err := runPortfolio(rep, sys, opts, deadline, sp)
		rep.Attempts = attempts
		return sol, err
	default:
		return nil, fmt.Errorf("core: unknown solver kind %d", opts.Solver)
	}
	rep.Attempts = append(rep.Attempts, att)
	if sol == nil {
		return nil, attemptError("core", att)
	}
	return sol, nil
}

// Replay runs the final replay phase on rep.Solution, recording the
// "replay" span and the replay.* metrics. It is the tail of Reproduce,
// split out so callers that solved with SkipReplay — to post-process the
// schedule first, like clap's -simplify — replay under the same trace.
func (rep *Reproduction) Replay(ropts replay.Options) (*replay.Outcome, error) {
	if rep.Solution == nil {
		return nil, fmt.Errorf("core: no solution to replay")
	}
	sp := rep.Trace.Root().Start("replay")
	out, err := replay.Run(rep.System, rep.Solution, ropts)
	if err != nil {
		sp.SetAttr("err", err.Error())
		endStage(rep.Trace.Reg(), "replay", sp)
		return nil, err
	}
	sp.SetAttr("reproduced", fmt.Sprint(out.Reproduced))
	endStage(rep.Trace.Reg(), "replay", sp)
	rep.Outcome = out
	emitReplay(rep.Trace.Reg(), out)
	return out, nil
}

// bestSolution picks the fewest-preemption schedule of a parallel result.
func bestSolution(res *parsolve.Result) *solver.Solution {
	best := res.Solutions[0]
	for _, s := range res.Solutions[1:] {
		if s.Preemptions < best.Preemptions {
			best = s
		}
	}
	return best
}

func parallelFailure(res *parsolve.Result) error {
	if res.TimedOut || res.Cancelled {
		return &solver.Interrupted{Reason: "parallel search cut short", Bound: res.Bound}
	}
	return fmt.Errorf("parallel solver found no schedule (generated %d, capped=%v)",
		res.Generated, res.Capped)
}

func boundOf(stats *solver.Stats) int {
	if stats == nil {
		return -1
	}
	return stats.BoundReached
}

// ReproduceSource is the one-call convenience API: compile, record, solve,
// replay.
func ReproduceSource(src string, recOpts RecordOptions, opts ReproduceOptions) (*Reproduction, error) {
	prog, err := Compile(src)
	if err != nil {
		return nil, err
	}
	rec, err := Record(prog, recOpts)
	if err != nil {
		return nil, err
	}
	return Reproduce(rec, opts)
}
