// Observability glue: the pipeline's stats structs (LevelStats, the
// constraint/preprocess accounting, the parallel and CNF solvers'
// counters) are consolidated into one obs.Registry under the stable
// dotted names of obs.StableNames, and the solvers' plain Progress
// callbacks are wired to registry gauges so a heartbeat can watch a live
// solve. Everything here is nil-safe: with no registry the emitters are
// no-ops and no progress callbacks are installed, so an uninstrumented
// run pays nothing.
package core

import (
	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/obs"
	"repro/internal/parsolve"
	"repro/internal/replay"
	"repro/internal/solver"
)

// b2i converts a flag to its 0/1 metric value.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// emitRecordCounters publishes the bug hunt's accounting: the per-level
// sweep totals plus, when a failing run was found, the size of the winning
// recording.
func emitRecordCounters(reg *obs.Registry, levels []LevelStats, rec *Recording) {
	if reg == nil {
		return
	}
	reg.Counter("record.levels").Add(int64(len(levels)))
	for _, l := range levels {
		reg.Counter("record.seeds").Add(int64(l.Seeds))
		reg.Counter("record.livelocked").Add(int64(l.Livelocked))
		reg.Counter("record.failures").Add(int64(l.Failures))
	}
	if rec == nil || rec.Run == nil {
		return
	}
	reg.Counter("record.saps").Add(rec.Run.VisibleEvents)
	reg.Counter("record.instructions").Add(rec.Run.Instructions)
	reg.Counter("record.branches").Add(rec.Run.Branches)
	if rec.Log != nil {
		reg.Counter("record.log.bytes").Add(int64(rec.LogSize()))
		var events int64
		for i := range rec.Log.Threads {
			events += int64(len(rec.Log.Threads[i].Events))
		}
		reg.Counter("record.events").Add(events)
	}
}

// emitConstraintStats publishes the §4.1 system-size accounting.
func emitConstraintStats(reg *obs.Registry, st constraints.Stats) {
	if reg == nil {
		return
	}
	reg.Counter("constraints.saps").Add(int64(st.SAPs))
	reg.Counter("constraints.clauses").Add(int64(st.Clauses))
	reg.Counter("constraints.variables").Add(int64(st.Variables))
	reg.Counter("constraints.value.vars").Add(int64(st.ValueVars))
	reg.Counter("constraints.signal.vars").Add(int64(st.SignalVars))
}

// emitPreStats publishes the preprocessing pass's reduction accounting.
func emitPreStats(reg *obs.Registry, st *constraints.PreStats) {
	if reg == nil || st == nil {
		return
	}
	reg.Counter("preprocess.reads").Add(int64(st.Reads))
	reg.Counter("preprocess.reads.free").Add(int64(st.FreeReads))
	reg.Counter("preprocess.reads.noinit").Add(int64(st.NoInitReads))
	reg.Counter("preprocess.cands.before").Add(int64(st.CandsBefore))
	reg.Counter("preprocess.cands.after").Add(int64(st.CandsAfter))
	reg.Counter("preprocess.pruned.order").Add(int64(st.PrunedOrder))
	reg.Counter("preprocess.pruned.shadowed").Add(int64(st.PrunedShadowed))
	reg.Counter("preprocess.pruned.lock").Add(int64(st.PrunedLock))
	reg.Counter("preprocess.pruned.mutex").Add(int64(st.PrunedMutex))
	reg.Counter("preprocess.wait.cands.before").Add(int64(st.WaitCandsBefore))
	reg.Counter("preprocess.wait.cands.after").Add(int64(st.WaitCandsAfter))
	reg.Counter("preprocess.closure.skipped").Add(b2i(st.ClosureSkipped))
}

// The solver metrics are gauges, not counters: the progress hooks
// republish cumulative snapshots while a solve runs, and the final stats
// overwrite them with the settled values when it ends.

func emitParResult(reg *obs.Registry, res *parsolve.Result) {
	if reg == nil || res == nil {
		return
	}
	reg.Gauge("solver.par.generated").Set(res.Generated)
	reg.Gauge("solver.par.validated").Set(res.Validated)
	reg.Gauge("solver.par.valid").Set(int64(res.Valid))
	reg.Gauge("solver.par.bound").Set(int64(res.Bound))
	reg.Gauge("solver.par.capped").Set(b2i(res.Capped))
}

func emitCNFStats(reg *obs.Registry, st *cnfsolver.Stats) {
	if reg == nil || st == nil {
		return
	}
	reg.Gauge("solver.cnf.boolvars").Set(int64(st.BoolVars))
	reg.Gauge("solver.cnf.clauses").Set(st.Clauses)
	reg.Gauge("solver.cnf.rounds").Set(int64(st.TheoryRounds))
	reg.Gauge("solver.cnf.lazy.rounds").Set(st.LazyRounds)
	reg.Gauge("solver.cnf.lazy.lemmas").Set(st.LazyLemmas)
	reg.Gauge("solver.cnf.addr.rounds").Set(st.AddrRounds)
	reg.Gauge("solver.cnf.addr.lemmas").Set(st.AddrLemmas)
	reg.Gauge("solver.cnf.blocks.mapping").Set(st.MappingBlocks)
	reg.Gauge("solver.cnf.session.solves").Set(st.Solves)
	reg.Gauge("solver.cnf.session.reuse").Set(st.SessionReuse())
	reg.Gauge("solver.cnf.sat.conflicts").Set(st.SATConflicts)
	reg.Gauge("solver.cnf.sat.decisions").Set(st.SATDecisions)
	reg.Gauge("solver.cnf.sat.propagations").Set(st.SATPropagations)
	reg.Gauge("sat.solves").Set(st.SATSolves)
	reg.Gauge("sat.restarts").Set(st.SATRestarts)
	reg.Gauge("sat.learnts").Set(st.SATLearned)
}

// endStage closes a pipeline-stage span and feeds its wall time into the
// stage's latency histogram, the fleet-level view of where tail latency
// lives. Nil-safe on both the registry and the span.
func endStage(reg *obs.Registry, name string, sp *obs.Span) {
	sp.End()
	if sp != nil {
		reg.Hist("stage." + name + ".ns").Observe(int64(sp.Duration()))
	}
}

// emitSolveSummary publishes the solve stage's bottom line.
func emitSolveSummary(reg *obs.Registry, attempts []SolverAttempt, sol *solver.Solution) {
	if reg == nil {
		return
	}
	reg.Counter("solve.attempts").Add(int64(len(attempts)))
	if sol != nil {
		reg.Gauge("solve.preemptions").Set(int64(sol.Preemptions))
		reg.Gauge("solve.schedule.len").Set(int64(len(sol.Order)))
	}
}

func emitReplay(reg *obs.Registry, out *replay.Outcome) {
	if reg == nil || out == nil {
		return
	}
	reg.Counter("replay.events.matched").Add(int64(out.EventsMatched))
	reg.Counter("replay.reproduced").Add(b2i(out.Reproduced))
}

// wireProgress installs registry-publishing progress callbacks into the
// parallel and CNF solvers' options. Caller-supplied callbacks win; with
// no registry nothing is installed and the solvers skip the sampling
// entirely.
func wireProgress(reg *obs.Registry, par *parsolve.Options, cnf *cnfsolver.Options) {
	if reg == nil {
		return
	}
	if par != nil && par.Progress == nil {
		par.Progress = func(p parsolve.Progress) {
			reg.Gauge("solver.par.generated").Set(p.Generated)
			reg.Gauge("solver.par.validated").Set(p.Validated)
			reg.Gauge("solver.par.valid").Set(p.Valid)
			reg.Gauge("solver.par.bound").Set(int64(p.Bound))
		}
	}
	if cnf != nil && cnf.Progress == nil {
		cnf.Progress = func(st cnfsolver.Stats) { emitCNFStats(reg, &st) }
	}
}
