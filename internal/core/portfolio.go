// Solver portfolio: the product path is a ladder of two steps on the
// caller's goroutine, each with complementary strengths (§4 of the paper
// compares its solvers benchmark by benchmark). The recording's memory
// model picks where it starts:
//
//  1. under SC, preemption-bounded generate-and-validate
//     (schedule.Enumerate, §4.3) runs for a head start of min(20 ms, a
//     fifth of the remaining deadline) over the bounds 0..3, long enough
//     for the data-race systems it solves in milliseconds. A schedule it
//     finds at a bound it reached by refuting every lower one is minimal
//     (§4.2). Under TSO/PSO there is no head start;
//  2. CNF, which solves the systems that defeat enumeration (the
//     mutual-exclusion spin loops, the stress tests) in milliseconds, gets
//     the rest of the budget. It searches for the fewest preemptions
//     (cnfsolver.Session.SolveMinimal), walking the bound up from the
//     number of leading bounds the head start refuted exhaustively — no
//     schedule has fewer — until one admits a schedule, which a refuted
//     bound below proves minimal under every memory model.
//
// The answer therefore does not depend on the number of cores. A step
// that is interrupted, finds nothing, errors, or panics is recorded in the
// attempt trail, which ends at the step that solved; a failed head start
// degrades to CNF, and a failed CNF step ends the ladder with an error
// that names both steps and wraps CNF's. The parallel solver is not a
// step; it stays available as its own SolverKind.
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
	"repro/internal/schedule"
	"repro/internal/solver"
	"repro/internal/vm"
)

// defaultCNFBudget bounds the CNF step when the caller supplies no
// deadline, so the portfolio can never hang in it.
const defaultCNFBudget = 60 * time.Second

// enumHeadStart caps the enumeration head start. A variable only so tests
// can pin it.
var enumHeadStart = 20 * time.Millisecond

// SolverAttempt records one solver stage's outcome in the attempt trail.
type SolverAttempt struct {
	// Solver names the stage: "enumerate", "parallel" or "cnf".
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

// enumStage runs the head start as one attempt: schedule.Enumerate on
// sys until the head-start budget or the caller's context stops it. It
// returns the schedule it found, or the number of leading bounds it
// refuted, which is where CNF starts.
func enumStage(ctx context.Context, rep *Reproduction, sys *constraints.System, budget time.Duration, sp *obs.Span) (*solver.Solution, int, SolverAttempt) {
	end := time.Now().Add(budget)
	var why string
	stop := func() bool {
		switch {
		case ctx != nil && ctx.Err() != nil:
			why = ctx.Err().Error()
		case time.Now().After(end):
			why = "deadline exceeded"
		}
		return why != ""
	}
	floor := 0
	sol, att := runSolverStage(rep.Trace.Reg(), "enumerate", sp, func() (*solver.Solution, int, error) {
		order, w, f := schedule.Enumerate(sys, stop)
		floor = f
		bound := min(f, schedule.EnumerateBound)
		switch {
		case order != nil:
			return &solver.Solution{Order: order, Witness: w, Preemptions: w.Preemptions}, bound, nil
		case why != "":
			return nil, bound, &solver.Interrupted{Reason: why, Bound: bound}
		}
		return nil, bound, nil
	})
	return sol, floor, att
}

// cnfStage runs the CNF solver as one attempt, keeping its statistics in
// rep. The session searches the preemption bound up from lower, a bound
// below which the caller knows no schedule exists, to the fewest
// preemptions it can prove. The attempt's bound is the last one the
// search assumed.
func cnfStage(rep *Reproduction, sys *constraints.System, o cnfsolver.Options, lower int, sp *obs.Span) (*solver.Solution, SolverAttempt) {
	reg := rep.Trace.Reg()
	wireProgress(reg, nil, &o)
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

// headStart is the enumeration head start's budget: enumHeadStart,
// shrunk to a fifth of a tight shared deadline so CNF still gets most of
// it.
func headStart(deadline time.Time) time.Duration {
	h := enumHeadStart
	if rem := remaining(deadline); rem > 0 && rem/5 < h {
		h = rem / 5
	}
	return max(h, time.Nanosecond)
}

// runPortfolio runs the solver ladder on sys, honouring opts.Ctx and the
// shared deadline. It returns the solution together with the attempt
// trail; when the ladder fails, the trail explains each step's exit. The
// CNF statistics land in rep even when CNF did not solve.
func runPortfolio(rep *Reproduction, sys *constraints.System, opts ReproduceOptions, deadline time.Time, sp *obs.Span) (*solver.Solution, []SolverAttempt, error) {
	var trail []SolverAttempt
	lower := 0
	if sys.Model == vm.SC {
		sol, floor, att := enumStage(opts.Ctx, rep, sys, headStart(deadline), sp)
		trail = append(trail, att)
		if sol != nil {
			return sol, trail, nil
		}
		if err := portfolioCut(opts.Ctx, deadline, trail); err != nil {
			return nil, trail, err
		}
		lower = floor
	}

	cnfOpts := cnfOptions(opts, deadline)
	if deadline.IsZero() {
		cnfOpts.Deadline = defaultCNFBudget
	}
	sol, att := cnfStage(rep, sys, cnfOpts, lower, sp)
	trail = append(trail, att)
	if sol != nil {
		return sol, trail, nil
	}
	// CNF's encoding is complete, so its Unsat proves that no schedule
	// exists.
	var unsat *cnfsolver.Unsat
	if errors.As(att.err, &unsat) {
		return nil, trail, fmt.Errorf("core: portfolio: no schedule exists (%s): %w", trailSummary(trail), unsat)
	}
	if err := portfolioCut(opts.Ctx, deadline, trail); err != nil {
		return nil, trail, err
	}
	// No shared budget expired, but CNF failed: its fault, panic, budget
	// error or own interrupt ends the ladder, wrapped so a caller can tell
	// "ran out of time" from a proof that no schedule exists.
	return nil, trail, fmt.Errorf("core: portfolio exhausted (%s): %w", trailSummary(trail), att.err)
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
