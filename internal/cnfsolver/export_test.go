package cnfsolver

import (
	"repro/internal/constraints"
	"repro/internal/solver"
)

// SolveBound runs one DPLL(T) entry under the assumption that at most k
// preemption charges hold: the step SolveMinimal's search takes at bound
// k, without the search around it.
func (sess *Session) SolveBound(k int) (*solver.Solution, error) {
	if sess.e.d == nil {
		sess.e.buildDescent()
	}
	sess.e.widen(k + 1)
	if k >= len(sess.e.d.atMost) {
		k = -1 // no more than k charges exist
	}
	return sess.solve(sess.arm(), k)
}

// OrderPairs lists the SAP pairs the session has order variables for, in
// allocation order, each with the lower index first.
func (sess *Session) OrderPairs() [][2]constraints.SAPRef {
	out := make([][2]constraints.SAPRef, len(sess.e.pairs))
	for i, p := range sess.e.pairs {
		out[i] = [2]constraints.SAPRef{constraints.SAPRef(p.a), constraints.SAPRef(p.b)}
	}
	return out
}

// HardBefore reports whether the session's hard-order closure puts SAP a
// before SAP b.
func (sess *Session) HardBefore(a, b constraints.SAPRef) bool {
	return sess.e.hard != nil && a != b && sess.e.hard.before(int(a), int(b))
}
