package cnfsolver

import "repro/internal/solver"

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
