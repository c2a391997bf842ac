package explain

import (
	"fmt"
	"io"

	"repro/internal/constraints"
)

// musBudget bounds each oracle invocation's search nodes. Exhaustion
// makes that check "unknown" and the candidate group is conservatively
// kept.
const musBudget = 200_000

// Core is the shrinker's result: a verdict on why solving failed.
type Core struct {
	// Unsat reports whether the oracle confirmed the full constraint
	// system unsatisfiable. When false, the system is satisfiable (or
	// undecided) as far as the oracle can tell and Groups is empty — the
	// production solve failed on budgets or bounds, not on conflicting
	// constraints.
	Unsat bool
	// Satisfiable is set when the oracle positively found a schedule for
	// the full system (distinguishing "sat" from "budget ran out").
	Satisfiable bool
	// Groups is the minimal unsatisfiable subset: deleting any single
	// member makes the remainder satisfiable (relative to the oracle; see
	// package comment).
	Groups []constraints.Group
	// Checks counts oracle invocations; Kept counts groups kept because a
	// deletion check exhausted its budget (0 means the core is fully
	// shrunk).
	Checks int
	Kept   int
}

// MinimizeUnsat explains an unsatisfiable constraint system by
// delete-based shrinking over its per-rule groups: starting from the full
// group set, each group is dropped in turn and kept only if the remainder
// becomes satisfiable. The surviving set is a minimal conflicting core —
// the smallest (inclusion-wise) set of encoding rules that together admit
// no schedule.
func MinimizeUnsat(sys *constraints.System) *Core {
	groups := sys.Groups()
	keep := make([]bool, len(groups))
	for i := range keep {
		keep[i] = true
	}
	core := &Core{}

	core.Checks++
	switch check(sys, groups, keep, musBudget) {
	case vSat:
		core.Satisfiable = true
		return core
	case vUnknown:
		return core
	}
	core.Unsat = true

	// Delete-based shrink: drop one group at a time; if the rest is still
	// unsat the group is irrelevant to the conflict and stays dropped.
	for i := range groups {
		keep[i] = false
		core.Checks++
		switch check(sys, groups, keep, musBudget) {
		case vUnsat:
			// still conflicting without it: delete permanently
		case vSat:
			keep[i] = true // deleting it restored satisfiability: essential
		case vUnknown:
			keep[i] = true // undecided: keep conservatively
			core.Kept++
		}
	}
	for i, g := range groups {
		if keep[i] {
			core.Groups = append(core.Groups, g)
		}
	}
	return core
}

// Render writes the human-readable "why no schedule exists" verdict.
func (c *Core) Render(w io.Writer) {
	switch {
	case c.Satisfiable:
		fmt.Fprintln(w, "no conflicting constraints: the relaxed check finds the system satisfiable —")
		fmt.Fprintln(w, "the production solve failed on its search budgets or preemption bounds, not on F itself.")
		fmt.Fprintln(w, "Retry with a higher -timeout or an explicit preemption bound.")
		return
	case !c.Unsat:
		fmt.Fprintln(w, "undecided: the explanation oracle exhausted its budget before confirming the")
		fmt.Fprintln(w, "system unsatisfiable; no minimal core to report.")
		return
	}
	fmt.Fprintf(w, "no schedule exists: %d constraint groups conflict (after %d oracle checks)\n", len(c.Groups), c.Checks)
	if c.Kept > 0 {
		fmt.Fprintf(w, "(%d groups kept on budget exhaustion — the core may not be fully minimal)\n", c.Kept)
	}
	for _, g := range c.Groups {
		fmt.Fprintf(w, "  %-16s %s\n", g.ID, g.Desc)
	}
	fmt.Fprintln(w, "deleting any one of these groups admits a schedule; together they admit none.")
}
