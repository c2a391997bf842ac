package cnfsolver

import (
	"repro/internal/constraints"
	"repro/internal/sat"
	"repro/internal/solver"
	"repro/internal/symexec"
	"repro/internal/trace"
)

// This file is the preemption descent: the CNF session's way to the
// paper's fewest-preemption schedule (§4.2) without the sequential
// search's bound-by-bound enumeration.
//
// Each program-order gap (a, b) of a thread — b is the SAP right after a —
// gets an open literal. A closed gap keeps every other thread's SAP c on
// one side of both, ¬open → (c<a ↔ c<b); refineGaps learns these clauses
// lazily, for the SAPs an extracted order actually puts inside a closed
// gap. An open gap costs a charge when b could run right after a:
//
//   - for a memory SAP (or any SAP that is always enabled), the open
//     literal itself;
//   - for a lock, open and no other thread's region on the mutex is held
//     right after a (one auxiliary literal per region, implying L<a and
//     a<U);
//   - for a SAP with cross-thread hard predecessors (a join), open and
//     every one of them before a;
//   - for a wait-end, open: this over-counts;
//   - for a gap whose order is not a hard edge (TSO/PSO), open and a<b:
//     a delayed write reorders the gap without a switch.
//
// A sequential counter over the charges gives one assumption literal per
// bound. Under SC, for programs without condition variables, a validated
// schedule never has more preemptions (constraints.CountSwitches) than
// its model's charges — linearize switches threads only where the model
// blocks the running one, so every switch sits in an open gap — and every
// schedule with p preemptions has a model with exactly p charges. An Unsat
// under the bound p−1 therefore proves p minimal. Under TSO/PSO the
// charges neither bound nor match the preemptions; the descent is then a
// heuristic, and every schedule it returns is still validated.

// descent is the preemption encoding, built once per session.
type descent struct {
	gaps []gap
	// atMost[k] is the assumption that at most k charges hold.
	atMost []sat.Lit
}

// gap is one program-order gap: b runs right after a in its thread.
type gap struct {
	a, b int
	open sat.Lit
}

// SolveMinimal solves like Solve, then descends on the preemption count:
// it re-solves on the same session under the assumption that at most k
// charges hold, k one below the best schedule's validated count, until
// that assumption is refuted, the best count reaches lower, or the
// deadline passes, and returns the best schedule found. lower is a proof
// the caller holds that no schedule has fewer preemptions (the bounds the
// sequential search refuted exhaustively); pass 0 without one.
//
// Under SC and without condition variables, a refuted bound proves the
// returned schedule minimal. Otherwise the descent may stop above the
// minimum; every schedule it returns is validated either way.
//
// Only the first solve's failure is an error. A refuted bound, an
// interrupt or an exhausted theory budget during the descent ends it with
// the best schedule so far: an Unsat under a bound assumption says
// nothing about the system, so it never surfaces as *Unsat.
func (sess *Session) SolveMinimal(lower int) (*solver.Solution, *Stats, error) {
	st := &sess.st
	st.Solves++
	interrupted := sess.arm()
	best, err := sess.solve(interrupted, -1)
	e := sess.e
	if err == nil && best.Preemptions > lower {
		if e.d == nil {
			e.buildDescent(best.Preemptions)
		}
		for k := min(best.Preemptions, len(e.d.atMost)) - 1; k >= lower; k = min(k, best.Preemptions) - 1 {
			st.Descents++
			st.DescentBound = k
			sol, err := sess.solve(interrupted, k)
			if err != nil {
				break
			}
			if sol.Preemptions < best.Preemptions {
				best = sol
			}
		}
	}
	sess.refresh()
	return best, st, err
}

// buildDescent encodes the gaps, their charges and a counter of the given
// width over the charges.
func (e *encoder) buildDescent(width int) {
	sys := e.sys
	cross := make([][]int, e.n)
	hard := make(map[[2]constraints.SAPRef]bool, len(sys.HardEdges))
	for _, edge := range sys.HardEdges {
		hard[edge] = true
		if a, b := edge[0], edge[1]; sys.SAPs[a].Thread != sys.SAPs[b].Thread {
			cross[b] = append(cross[b], int(a))
		}
	}
	d := &descent{}
	var charges, lits []sat.Lit
	for t, refs := range sys.Threads {
		for i := 0; i+1 < len(refs); i++ {
			a, b := int(refs[i]), int(refs[i+1])
			g := gap{a: a, b: b, open: e.newLit()}
			d.gaps = append(d.gaps, g)
			// lits is the charge clause's premise, negated: the gap is
			// open, a runs first (unless a hard edge says so), and nothing
			// blocks b right after a.
			lits = append(lits[:0], g.open.Not())
			if !hard[[2]constraints.SAPRef{refs[i], refs[i+1]}] {
				lits = append(lits, e.lit(a, b).Not())
			}
			for _, p := range cross[b] {
				lits = append(lits, e.lit(p, a).Not())
			}
			if s := sys.SAPs[b]; s.Kind == symexec.SAPLock {
				for _, r := range sys.Regions[s.Mutex] {
					if r.Thread == trace.ThreadID(t) {
						continue
					}
					held := e.newLit()
					e.add(held.Not(), e.lit(int(r.Lock), a))
					if r.HasUnlock {
						e.add(held.Not(), e.lit(a, int(r.Unlock)))
					}
					lits = append(lits, held)
				}
			}
			charge := g.open
			if len(lits) > 1 {
				charge = e.newLit()
				e.add(append(lits, charge)...)
			}
			charges = append(charges, charge)
		}
	}
	d.atMost = e.counter(charges, width)
	e.d = d
}

// counter encodes a sequential counter (Sinz 2005) over lits: register
// j of position i holds when at least j+1 of lits[:i+1] do, for j below
// width. It returns atMost, where assuming atMost[k] allows at most k of
// lits to hold.
func (e *encoder) counter(lits []sat.Lit, width int) []sat.Lit {
	var prev []sat.Lit
	for i, x := range lits {
		cur := make([]sat.Lit, min(width, i+1))
		for j := range cur {
			cur[j] = e.newLit()
			if j < len(prev) {
				e.add(prev[j].Not(), cur[j])
			}
			if j == 0 {
				e.add(x.Not(), cur[0])
			} else {
				e.add(x.Not(), prev[j-1].Not(), cur[j])
			}
		}
		prev = cur
	}
	atMost := make([]sat.Lit, len(prev))
	for k, r := range prev {
		atMost[k] = r.Not()
	}
	return atMost
}

// refineGaps learns the contiguity clauses the extracted order breaks:
// for each closed gap with another thread's SAP c inside, the two clauses
// ¬open → (c<a ↔ c<b). It picks the c that blocked b — an in-gap SAP the
// model orders right before b — else the first in-gap SAP of another
// thread. With those clauses present, a model that closes the gap orients
// c the same way against a and b, and linearize follows the model, so no
// (gap, c) pair is learnt twice and the refinement terminates. It returns
// the number of clauses added.
func (e *encoder) refineGaps(order []constraints.SAPRef) int {
	pos := e.positions(order)
	for _, g := range e.d.gaps {
		if e.holds(g.open) {
			continue
		}
		lo, hi := pos[g.a], pos[g.b]
		if lo > hi {
			lo, hi = hi, lo
		}
		if c := e.intruder(order[lo+1:hi], g); c >= 0 {
			x, y := e.lit(c, g.a), e.lit(c, g.b)
			e.stage(g.open, x.Not(), y)
			e.stage(g.open, x, y.Not())
		}
	}
	return e.flush()
}

// intruder picks the other-thread SAP of in, the SAPs an order puts
// inside gap g, that refineGaps learns about: one with a model edge into
// g.b if any, else the first; -1 when in holds only g's own thread.
func (e *encoder) intruder(in []constraints.SAPRef, g gap) int {
	l := &e.lin
	first := -1
	for _, c := range in {
		if l.thread[c] == l.thread[g.a] {
			continue
		}
		for _, s := range l.succ[l.start[c]:l.start[c+1]] {
			if int(s) == g.b {
				return int(c)
			}
		}
		if first < 0 {
			first = int(c)
		}
	}
	return first
}

// newLit returns the positive literal of a fresh variable.
func (e *encoder) newLit() sat.Lit { return sat.MkLit(e.s.NewVar(), false) }

// holds reports whether l is true in the current model.
func (e *encoder) holds(l sat.Lit) bool { return e.s.Value(l.Var()) != l.Neg() }
