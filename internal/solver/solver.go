// Package solver holds what CLAP's solvers and their consumers share: the
// Solution a solver returns and replay runs, the Interrupted error of a
// search cut short, and the Pearce–Kelly OrderGraph (ordgraph.go) behind
// the CNF backend's order theory and the explain package's unsat-core
// oracle.
//
// As the paper observes (§4), CLAP's queries are not general SMT: "the
// solver only needs to compute a solution for the order variables that
// essentially maps each Read to a certain Write in a discrete finite
// domain, subject to the order constraints." The decision procedures are
// preemption-bounded generate-and-validate (internal/schedule, serially;
// internal/parsolve, in parallel) and the CNF encoding with a CDCL core
// (internal/cnfsolver).
package solver

import (
	"fmt"

	"repro/internal/constraints"
)

// Solution is a bug-reproducing schedule.
type Solution struct {
	Order   []constraints.SAPRef
	Witness *constraints.Witness
	// Preemptions is the schedule's preemptive context-switch count.
	Preemptions int
}

// Interrupted is returned when a deadline or context cancellation cut a
// search short, so callers can tell "ran out of budget" from a proof that
// no schedule exists.
type Interrupted struct {
	Reason string
	// Bound is the preemption bound being explored at the interrupt.
	Bound int
}

// Error implements error.
func (e *Interrupted) Error() string {
	return fmt.Sprintf("solver: interrupted at bound %d: %s", e.Bound, e.Reason)
}
