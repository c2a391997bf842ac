// Solver portfolio: CLAP ships three decision procedures (the sequential
// minimal-preemption search, the parallel generate-and-validate pool, and
// the CNF/CDCL encoding) with complementary strengths — §4 of the paper
// compares them benchmark by benchmark. The portfolio combines the two
// that cover every benchmark into a ladder that runs on the caller's
// goroutine:
//
//  1. the sequential search, whose schedules have minimal preemptions
//     (§4.2), runs for a head start of min(20 ms, a fifth of the
//     remaining deadline) — long enough for the data-race systems it
//     solves in milliseconds;
//  2. CNF, which solves the systems that defeat the sequential search (the
//     mutual-exclusion spin loops) in milliseconds, gets the rest of the
//     budget. It descends to the fewest preemptions it can prove
//     (cnfsolver.Session.SolveMinimal), from the number of leading bounds
//     the head start refuted exhaustively (solver.Stats.Refuted) — no
//     schedule has fewer;
//  3. if CNF fails for a reason other than the shared deadline — its
//     200-round value-theory budget ran out, or it panicked or had a fault
//     injected — and the head start was cut short, the sequential search
//     runs again with what remains. A CNF proof of unsatisfiability
//     (cnfsolver.Unsat) ends the ladder instead: no schedule exists for
//     the sequential search to find.
//
// The answer therefore does not depend on the number of cores. A step
// that is interrupted, finds nothing, errors, or panics is recorded in the
// attempt trail, which ends at the step that solved, so a reproduction
// that needed a fallback says which step failed and why. The parallel
// solver is not a step; it stays available as its own SolverKind.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/parsolve"
	"repro/internal/solver"
)

// Default per-step budgets when the caller supplies no deadline: each
// step is always bounded so the portfolio can never hang in one step.
const (
	defaultSeqBudget = 10 * time.Second
	defaultCNFBudget = 60 * time.Second
)

// seqHeadStart caps the sequential search's first step. A variable only
// so tests can pin it.
var seqHeadStart = 20 * time.Millisecond

// SolverAttempt records one solver stage's outcome in the attempt trail.
type SolverAttempt struct {
	// Solver names the stage: "sequential", "parallel" or "cnf".
	Solver string
	// Elapsed is the stage's wall time.
	Elapsed time.Duration
	// Outcome is one of "solved", "interrupted", "fault injected",
	// "panicked", "no schedule" or "failed". "failed" covers every other
	// error the stage returned, such as a CNF proof of unsatisfiability
	// or an exhausted theory budget; Err holds it.
	Outcome string
	// Err holds the failure detail when the stage did not solve.
	Err string
	// BoundReached is the last preemption bound the stage explored
	// (-1 when the stage does not sweep bounds).
	BoundReached int
	// Preemptions is the solution's preemption count when solved.
	Preemptions int

	// err retains the underlying error for callers inside the package.
	err error
}

// String renders the attempt for logs and CLI output.
func (a SolverAttempt) String() string {
	s := fmt.Sprintf("%s: %s in %v", a.Solver, a.Outcome, a.Elapsed.Round(time.Millisecond))
	if a.Outcome == "solved" {
		return fmt.Sprintf("%s (%d preemptions)", s, a.Preemptions)
	}
	if a.Err != "" {
		s += " (" + a.Err + ")"
	}
	return s
}

// runSolverStage runs one stage with full containment: an injected fault
// skips the stage, a panic is recovered into the attempt record, and an
// interrupt is classified apart from a genuine failure. The attempt is
// recorded as a "solve.<name>" child span of parent — panics and faults
// included, so a trace shows every stage that ran and why it exited — and
// its wall time feeds the per-backend stage.solve.<name>.ns histogram.
func runSolverStage(reg *obs.Registry, name string, parent *obs.Span, fn func() (*solver.Solution, int, error)) (sol *solver.Solution, att SolverAttempt) {
	att = SolverAttempt{Solver: name, BoundReached: -1}
	sp := parent.Start("solve." + name)
	start := time.Now()
	defer func() {
		att.Elapsed = time.Since(start)
		if p := recover(); p != nil {
			sol = nil
			att.Outcome = "panicked"
			att.Err = fmt.Sprint(p)
			att.err = fmt.Errorf("%s solver panicked: %v", name, p)
		}
		sp.SetAttr("outcome", att.Outcome)
		if att.Err != "" {
			sp.SetAttr("err", att.Err)
		}
		if att.BoundReached >= 0 {
			sp.SetInt("bound", int64(att.BoundReached))
		}
		if att.Outcome == "solved" {
			sp.SetInt("preemptions", int64(att.Preemptions))
		}
		sp.End()
		reg.Hist("stage.solve." + name + ".ns").Observe(att.Elapsed.Nanoseconds())
	}()
	if err := faultinject.Fire("solver." + name); err != nil {
		att.Outcome = "fault injected"
		att.Err = err.Error()
		att.err = err
		return nil, att
	}
	s, bound, err := fn()
	att.BoundReached = bound
	if err != nil {
		var intr *solver.Interrupted
		if errors.As(err, &intr) {
			att.Outcome = "interrupted"
		} else {
			att.Outcome = "failed"
		}
		att.Err = err.Error()
		att.err = err
		return nil, att
	}
	if s == nil {
		att.Outcome = "no schedule"
		att.err = fmt.Errorf("%s solver returned no schedule", name)
		return nil, att
	}
	att.Outcome = "solved"
	att.Preemptions = s.Preemptions
	return s, att
}

// seqStage runs the sequential solver as one attempt, keeping its
// statistics in rep.
func seqStage(rep *Reproduction, sys *constraints.System, o solver.Options, sp *obs.Span) (*solver.Solution, SolverAttempt) {
	reg := rep.Trace.Reg()
	wireProgress(reg, &o, nil, nil)
	return runSolverStage(reg, "sequential", sp, func() (*solver.Solution, int, error) {
		s, stats, err := solver.Solve(sys, o)
		rep.SeqStats = stats
		emitSeqStats(reg, stats)
		return s, boundOf(stats), err
	})
}

// cnfStage runs the CNF solver as one attempt, keeping its statistics in
// rep. The session descends to the fewest preemptions it can prove, down
// to lower, a bound below which the caller knows no schedule exists. The
// attempt's bound is the last one the descent assumed.
func cnfStage(rep *Reproduction, sys *constraints.System, o cnfsolver.Options, lower int, sp *obs.Span) (*solver.Solution, SolverAttempt) {
	reg := rep.Trace.Reg()
	wireProgress(reg, nil, nil, &o)
	return runSolverStage(reg, "cnf", sp, func() (*solver.Solution, int, error) {
		s, stats, err := cnfsolver.NewSession(sys, o).SolveMinimal(lower)
		rep.CNFStats = stats
		emitCNFStats(reg, stats)
		if stats.Descents == 0 {
			return s, -1, err
		}
		return s, stats.DescentBound, err
	})
}

// attemptError turns a failed attempt into the error a single-solver
// Reproduce call reports. Interrupts pass through typed so callers can
// distinguish "ran out of budget" from "proved unsatisfiable".
func attemptError(prefix string, att SolverAttempt) error {
	if att.err != nil {
		var intr *solver.Interrupted
		if errors.As(att.err, &intr) {
			return att.err
		}
		return fmt.Errorf("%s: %s solver: %w", prefix, att.Solver, att.err)
	}
	return fmt.Errorf("%s: %s solver %s", prefix, att.Solver, att.Outcome)
}

// seqOptions wires opts.SeqOptions to the pipeline context and the
// remaining deadline (an existing tighter bound wins), in
// minimal-preemption mode unless the caller set a bound.
func seqOptions(opts ReproduceOptions, deadline time.Time) solver.Options {
	o := opts.SeqOptions
	if o.MaxPreemptions == 0 {
		// Default to minimal-preemption mode; an exact zero bound is
		// available through the solver package directly.
		o.MaxPreemptions = -1
	}
	if o.Ctx == nil {
		o.Ctx = opts.Ctx
	}
	capBudget(&o.Deadline, remaining(deadline))
	return o
}

// cnfOptions wires the CNF solver to the pipeline context and the
// remaining deadline.
func cnfOptions(opts ReproduceOptions, deadline time.Time) cnfsolver.Options {
	return cnfsolver.Options{Ctx: opts.Ctx, Deadline: remaining(deadline)}
}

// parOptions wires the parallel solver like cnfOptions does.
func parOptions(opts ReproduceOptions, deadline time.Time) parsolve.Options {
	return parsolve.Options{Ctx: opts.Ctx, Deadline: remaining(deadline)}
}

// remaining converts an absolute deadline to a duration budget; zero means
// "no bound", and an expired deadline becomes a nanosecond so the stage
// starts, notices, and reports an interrupt instead of silently running.
func remaining(deadline time.Time) time.Duration {
	if deadline.IsZero() {
		return 0
	}
	rem := time.Until(deadline)
	if rem <= 0 {
		return time.Nanosecond
	}
	return rem
}

// capBudget tightens *d to budget when budget is the earlier bound.
func capBudget(d *time.Duration, budget time.Duration) {
	if budget <= 0 {
		return
	}
	if *d == 0 || *d > budget {
		*d = budget
	}
}

// headStart is the sequential search's first-step budget: seqHeadStart,
// shrunk to a fifth of a tight shared deadline so CNF still gets most of
// it.
func headStart(deadline time.Time) time.Duration {
	h := seqHeadStart
	if rem := remaining(deadline); rem > 0 && rem/5 < h {
		h = rem / 5
	}
	return max(h, time.Nanosecond)
}

// runPortfolio runs the solver ladder on sys, honouring opts.Ctx and the
// shared deadline. It returns the solution together with the attempt
// trail; when every step fails, the trail explains each step's exit. The
// per-step statistics (SeqStats, CNFStats) land in rep even when the step
// that produced them did not solve.
func runPortfolio(rep *Reproduction, sys *constraints.System, opts ReproduceOptions, deadline time.Time, sp *obs.Span) (*solver.Solution, []SolverAttempt, error) {
	seqOpts := seqOptions(opts, deadline)
	capBudget(&seqOpts.Deadline, headStart(deadline))
	sol, att := seqStage(rep, sys, seqOpts, sp)
	trail := []SolverAttempt{att}
	if sol != nil {
		return sol, trail, nil
	}
	if err := portfolioCut(opts.Ctx, deadline, trail); err != nil {
		return nil, trail, err
	}
	resume := att.Outcome == "interrupted"

	cnfOpts := cnfOptions(opts, deadline)
	if deadline.IsZero() {
		capBudget(&cnfOpts.Deadline, defaultCNFBudget)
	}
	sol, att = cnfStage(rep, sys, cnfOpts, refutedOf(rep.SeqStats), sp)
	trail = append(trail, att)
	if sol != nil {
		return sol, trail, nil
	}
	// CNF's encoding is complete, so its Unsat proves that no schedule
	// exists: resuming the sequential search could only burn the budget.
	var unsat *cnfsolver.Unsat
	if errors.As(att.err, &unsat) {
		return nil, trail, fmt.Errorf("core: portfolio: no schedule exists (%s): %w", trailSummary(trail[:1]), unsat)
	}
	if err := portfolioCut(opts.Ctx, deadline, trail); err != nil {
		return nil, trail, err
	}

	if resume {
		seqOpts = seqOptions(opts, deadline)
		if deadline.IsZero() {
			capBudget(&seqOpts.Deadline, defaultSeqBudget)
		}
		sol, att = seqStage(rep, sys, seqOpts, sp)
		trail = append(trail, att)
		if sol != nil {
			return sol, trail, nil
		}
		if err := portfolioCut(opts.Ctx, deadline, trail); err != nil {
			return nil, trail, err
		}
	}
	// No shared budget expired, but a step may have exhausted its own:
	// surface that interrupt typed so "ran out of time" is not mistaken
	// for a proof that no schedule exists. A resumed sequential step
	// supersedes the head start it resumed.
	final := trail
	if resume {
		final = trail[1:]
	}
	for _, a := range final {
		var intr *solver.Interrupted
		if a.err != nil && errors.As(a.err, &intr) {
			return nil, trail, fmt.Errorf("core: portfolio exhausted (%s): %w", trailSummary(trail), intr)
		}
	}
	return nil, trail, fmt.Errorf("core: portfolio exhausted: %s", trailSummary(trail))
}

// portfolioCut reports a typed interrupt when the shared budget ran out
// between steps, so an exhausted portfolio is not mistaken for unsat.
func portfolioCut(ctx context.Context, deadline time.Time, attempts []SolverAttempt) error {
	if !huntInterrupted(ctx, deadline) {
		return nil
	}
	return fmt.Errorf("core: portfolio cut short (%s): %w",
		trailSummary(attempts), &solver.Interrupted{Reason: "portfolio budget exhausted", Bound: -1})
}

// trailSummary renders the attempt trail as one line.
func trailSummary(attempts []SolverAttempt) string {
	parts := make([]string, len(attempts))
	for i, a := range attempts {
		parts[i] = a.String()
	}
	return strings.Join(parts, "; ")
}
