package obs

// Stable metric names. These dotted names are the public schema of the
// metrics report and of /metrics: the pin test in internal/bench fails if
// the pipeline ever emits a name not listed here. Add new names
// deliberately; never reuse one with a different meaning.
//
// Convention: <phase>.<noun>[.<qualifier>]. Counters accumulate (Add),
// gauges hold the latest live value (Set) — the solver.* metrics are
// gauges because the progress hooks republish cumulative snapshots while
// a solve runs.
var StableNames = []string{
	// Record phase (core.Record, per-level detail on the record spans).
	"record.seeds",      // schedules executed across all chaos levels
	"record.livelocked", // runs that hit the action budget without failing
	"record.failures",   // runs that ended in an assertion failure
	"record.levels",     // chaos levels swept
	"record.events",     // path-log events of the winning recording
	"record.log.bytes",  // encoded CLAP log size
	"record.saps",       // shared access points of the winning run
	"record.instructions",
	"record.branches",

	// Constraint system size (constraints.Stats).
	"constraints.saps",
	"constraints.clauses",
	"constraints.variables",
	"constraints.value.vars",
	"constraints.signal.vars",

	// Preprocessing pass (constraints.PreStats).
	"preprocess.reads",
	"preprocess.reads.free",
	"preprocess.reads.noinit",
	"preprocess.cands.before",
	"preprocess.cands.after",
	"preprocess.pruned.order",
	"preprocess.pruned.shadowed",
	"preprocess.pruned.lock",
	"preprocess.pruned.mutex",
	"preprocess.wait.cands.before",
	"preprocess.wait.cands.after",
	"preprocess.closure.skipped", // 1 when the reachability closure was skipped

	// Parallel solver (parsolve.Result); live-updated during the solve.
	"solver.par.generated",
	"solver.par.validated",
	"solver.par.valid",
	"solver.par.bound",
	"solver.par.capped", // 1 when generation hit MaxSchedules

	// CNF solver (cnfsolver.Stats); live-updated during the solve.
	"solver.cnf.boolvars",
	"solver.cnf.clauses",
	"solver.cnf.rounds",
	"solver.cnf.lazy.rounds",    // lazy-transitivity refinement iterations
	"solver.cnf.lazy.lemmas",    // cycle lemmas those iterations learned
	"solver.cnf.addr.rounds",    // address-split refinement iterations
	"solver.cnf.addr.lemmas",    // choice-premised lemmas those iterations learned
	"solver.cnf.blocks.mapping", // mapping-class blocking clauses added
	"solver.cnf.session.solves", // DPLL(T) entries on the session
	"solver.cnf.session.reuse",  // entries that re-entered a live session
	"solver.cnf.sat.conflicts",
	"solver.cnf.sat.decisions",
	"solver.cnf.sat.propagations",

	// CDCL engine totals (sat.Solver), split out of the solver.cnf.sat.*
	// mirror so restart/learnt behavior is visible per run.
	"sat.solves",   // engine Solve calls issued
	"sat.restarts", // Luby restarts across those calls
	"sat.learnts",  // learnt clauses retained across those calls

	// Solve outcome, whichever backend won.
	"solve.attempts",
	"solve.preemptions",
	"solve.schedule.len",

	// Stage latency histograms: one observation per stage execution, in
	// nanoseconds over the fixed exponential buckets (histogram.go). The
	// stage.solve.<step> family times individual solver attempts.
	"stage.record.ns",
	"stage.symexec.ns",
	"stage.preprocess.ns",
	"stage.solve.ns",
	"stage.replay.ns",
	"stage.solve.enumerate.ns",
	"stage.solve.parallel.ns",
	"stage.solve.cnf.ns",

	// Content-addressed schedule cache (core.DiskCache): one hit or miss
	// per cached reproduction.
	"core.cache.hit",
	"core.cache.miss",

	// Replay phase (replay.Outcome).
	"replay.events.matched",
	"replay.reproduced", // 1 when the replay reproduced the failure

	// Flight recorder (core.BuildTimeline) and explainability
	// (core.ScheduleDiff).
	"timeline.execs",  // execution lanes in the timeline artifact
	"timeline.events", // events across all lanes
	"timeline.arrows", // spawn/join/flip flow arrows
	"explain.flips",   // conflicting SAP pairs the solver reversed
	"explain.remaps",  // reads whose last writer changed

	// Predictive race detection (core.DetectRaces / internal/races).
	"races.pairs",               // conflicting SAP pairs enumerated
	"races.pairs.pruned.static", // pruned as statically ordered
	"races.pairs.pruned.mutex",  // pruned by a common must-held lock
	"races.sites.confirmed",     // site verdicts with a validated witness
	"races.sites.refuted",       // sites proven never-adjacent
	"races.sites.unknown",       // sites the budgets could not decide
	"races.sites.static",        // static races with no recorded pair
	"races.solver.calls",        // CNF adjacency queries issued
	"races.solver.sessions",     // CNF sessions built (≤1 per recording)
	"races.solver.reuse",        // queries that re-entered a live session

	// Reproduction daemon (internal/clapd), reported via GET /v1/stats and
	// GET /metrics. Counters unless noted; clapd.queue.depth and
	// clapd.workers.busy are gauges, clapd.job.ns a histogram.
	"clapd.ingest.accepted",
	"clapd.ingest.dedup.cached",   // duplicate of a completed job, served from store
	"clapd.ingest.dedup.poisoned", // duplicate of a permanently failed job
	"clapd.ingest.dedup.inflight", // duplicate shed onto a queued/running job
	"clapd.ingest.rejected.badbundle",
	"clapd.ingest.rejected.toolarge",
	"clapd.ingest.rejected.saturated", // admission refusals (HTTP 429)
	"clapd.queue.depth",               // gauge: digests awaiting a worker
	"clapd.workers.busy",              // gauge: workers executing a job right now
	"clapd.job.ns",                    // histogram: per-attempt wall time
	"clapd.jobs.executed",             // pipeline attempts started
	"clapd.jobs.salvaged",             // attempts whose log needed salvage
	"clapd.jobs.done",
	"clapd.jobs.retried",
	"clapd.jobs.poisoned",
	"clapd.jobs.panics",                 // attempts recovered from a panic
	"clapd.jobs.done.unjournaled",       // done work whose terminal append failed
	"clapd.jobs.doublecomplete.refused", // refused exits from a terminal state
	"clapd.recovered.requeued",          // jobs re-queued by restart recovery
	"clapd.recovered.poisoned",          // jobs poisoned by restart recovery
	"clapd.journal.dropped.bytes",       // damaged WAL tail dropped on open
}

var stableSet = func() map[string]bool {
	m := make(map[string]bool, len(StableNames))
	for _, n := range StableNames {
		m[n] = true
	}
	return m
}()

// IsStable reports whether name is in the documented stable-name list.
func IsStable(name string) bool { return stableSet[name] }

// Default heartbeat configuration: the live gauges worth a glance during
// a long solve, and the activity metrics worth reporting as rates.
var (
	ProgressGauges = []string{"solver.par.bound", "solver.cnf.rounds"}
	ProgressRates  = []string{"solver.par.generated", "solver.cnf.sat.conflicts"}
)
