package cnfsolver

import (
	"errors"

	"repro/internal/constraints"
	"repro/internal/sat"
	"repro/internal/solver"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/vm"
)

// This file is the preemption descent: the CNF session's way to the
// paper's fewest-preemption schedule (§4.2) without enumerating the
// schedules of each bound.
//
// A thread's execution chain is the part of its program order that every
// schedule keeps: all of its SAPs under SC, its reads and synchronization
// operations under TSO/PSO. A TSO/PSO write is buffered instead: it drains
// after the chain SAP before it (its issue) and before the first chain SAP
// a hard edge puts after it (its drain bound, often the thread's exit;
// none when the thread never exits). constraints.CountSwitches counts a
// switch away from thread T as a preemption when T was ready: its next
// chain SAP could run, or a write of T had issued and not drained.
//
// Each chain gap (a, b) — b follows a in T's chain — gets an open literal.
// A closed gap keeps every other thread's SAP c on one side of both,
// ¬open → (c<a ↔ c<b), so T's SAPs from a to b, drains included, form one
// run. An open gap costs a charge when T was ready at its last run end
// before b, right after z, T's last SAP before b (a, or a write draining
// between a and b):
//
//   - when a write issued by a drains after b, always;
//   - otherwise when b could run at z: for a memory SAP (or any SAP that is
//     always enabled) always; for a lock, when no other thread's region
//     on the mutex holds it at z; for a SAP with cross-thread hard
//     predecessors (a join), when every one of them ran by z. A wait-end
//     is charged whenever its gap is open, which over-counts.
//
// A buffered write w gets three kinds of glue literal: left, no other
// thread's SAP between w and the chain SAP before it; right, none between
// w and the chain SAP after it; and one per write y that may drain right
// before w (drainsBefore), none between y and w. A drain with no glue
// literal true starts a run of drains between other threads' SAPs; T was
// ready there (w itself had issued), so it costs a charge. Under SC every
// SAP is in the chain, and the encoding is the program-order gaps alone.
// widen adds a sequential counter over the charges, with one assumption
// literal per bound.
//
// refineGaps learns the glue clauses lazily, for the other threads' SAPs
// an extracted order actually puts where a literal says there is none.
// Two facts make a refuted bound a proof:
//
//  1. The schedule linearize extracts never has more preemptions than the
//     model's charges. Once refineGaps accepts an order, every run of T
//     inside an open gap's span that starts with a drain has all of that
//     drain's glue literals false, and the last run end before b is
//     charged whenever CountSwitches counts it, because the charge clause
//     reads readiness from order literals the extraction follows.
//  2. Every valid schedule with p preemptions has a model with p charges.
//     Reordering adjacent drains of one thread changes nothing any SAP
//     reads or any hard edge, so some schedule with p preemptions drains
//     each run of drains in program order. Set the order literals by it,
//     each literal by what its name says, and each charge where a run end
//     is a preemption: a gap's charge for its last run end, a drain's for
//     the run it starts; every clause holds.
//
// An Unsat under the bound p−1 therefore proves p minimal, under every
// memory model, for programs without condition variables.

// descent is the preemption encoding, built once per session.
type descent struct {
	// gaps lists, thread by thread, the gaps of the execution chains.
	gaps []gap
	// drains lists the buffered writes with their glue literals.
	drains []drain
	// chain[r] is r's index in its thread's execution chain, -1 for a
	// buffered write; exec[t] is thread t's chain.
	chain []int32
	exec  [][]int32
	// issue[w] and drain[w] are the chain indices of a buffered write's
	// issue and drain bound (len(exec[t]) when nothing bounds it);
	// writes[t] lists thread t's buffered writes in program order.
	issue, drain []int32
	writes       [][]int32
	// charges holds one literal per gap and drain; regs[i] are the
	// counter's registers over charges[:i+1], and atMost[k] is the
	// assumption that at most k charges hold (see widen).
	charges []sat.Lit
	regs    [][]sat.Lit
	atMost  []sat.Lit
	// refineGaps scratch: per SAP, its thread's last chain SAP before it
	// in the extracted order; per thread, the running value.
	prevExec, lastExec []int32
	pendingBuf         []int32
}

// gap is one execution-chain gap: b runs next after a in its thread's
// chain.
type gap struct {
	a, b int
	open sat.Lit
}

// drain is a buffered write w with its glue literals: left, no other
// thread's SAP runs between w and the chain SAP before it; right, none
// between w and the chain SAP after it; after[i], none between w and a
// write of its thread that drains before it.
type drain struct {
	w           int
	left, right sat.Lit
	after       []glue
}

// glue is a drain's literal for following write y with no other thread's
// SAP in between.
type glue struct {
	y   int
	lit sat.Lit
}

// SolveMinimal solves like Solve, then searches the preemption count on
// the same session and returns the best schedule found. lower is a proof
// the caller holds that no schedule has fewer preemptions (the bounds
// schedule.Enumerate refuted exhaustively); pass 0 without one. The bound k
// walks up from lower, re-solving under the assumption that at most k
// charges hold, until a bound admits a schedule, which is then minimal, or
// k reaches the first schedule's count. Low bounds refute cheaply, so this
// costs less than walking down from the first schedule, which under
// TSO/PSO is often several times the minimum (DESIGN.md, "The search").
// The counter grows with the bound.
//
// Without condition variables, the charges count exactly the preemptions,
// so a refuted bound proves the returned schedule minimal, under every
// memory model. With them the search may stop above the minimum; every
// schedule it returns is validated either way.
//
// When the first solve runs out of value checks (ErrTheoryBudget), the
// bound walks up from lower all the same, each entry with a fresh budget:
// the bounded entries see fewer mappings and keep the first one's lemmas.
// Past the last charge the entry is unbounded, and its Unsat is the
// system's. Otherwise only the first solve's failure is an error. An
// interrupt or an exhausted theory budget during the search ends it with
// the first schedule: no bound below the minimum yields one, so a search
// cut short improves nothing. An Unsat under a bound assumption says
// nothing about the system, so it never surfaces as *Unsat.
func (sess *Session) SolveMinimal(lower int) (*solver.Solution, *Stats, error) {
	st := &sess.st
	st.Solves++
	interrupted := sess.arm()
	best, err := sess.solve(interrupted, -1)
	switch {
	case errors.Is(err, ErrTheoryBudget):
		best, err = sess.walk(interrupted, lower, -1)
	case err == nil && best.Preemptions > lower:
		if sol, _ := sess.walk(interrupted, lower, best.Preemptions); sol != nil && sol.Preemptions < best.Preemptions {
			best = sol
		}
	}
	sess.refresh()
	return best, st, err
}

// walk re-solves under the bounds lower, lower+1, … below top and returns
// the first bound's answer that is not Unsat. With top negative it goes
// on to the last charge and then solves unbounded.
func (sess *Session) walk(interrupted func() bool, lower, top int) (*solver.Solution, error) {
	e := sess.e
	if e.d == nil {
		e.buildDescent()
	}
	st := &sess.st
	end := len(e.d.charges)
	if top >= 0 {
		end = min(top, end)
	}
	for k := lower; k < end; k++ {
		e.widen(k + 1)
		st.Descents++
		st.DescentBound = k
		sol, err := sess.solve(interrupted, k)
		var unsat *Unsat
		if !errors.As(err, &unsat) {
			return sol, err
		}
	}
	if top >= 0 {
		return nil, nil
	}
	return sess.solve(interrupted, -1)
}

// buildDescent encodes the gaps, the drains' glue literals and their
// charges; widen adds the counter over them.
func (e *encoder) buildDescent() {
	sys := e.sys
	d := e.threadChains()
	cross := make([][]int, e.n)
	for _, edge := range sys.HardEdges {
		if a, b := edge[0], edge[1]; sys.SAPs[a].Thread != sys.SAPs[b].Thread {
			cross[b] = append(cross[b], int(a))
		}
	}
	var charges, lits []sat.Lit
	for t, refs := range sys.Threads {
		ex := d.exec[t]
		for i := 1; i < len(refs); i++ {
			v := int(refs[i])
			m := d.chain[v]
			if m < 0 {
				// A drain glued to nothing of its thread starts a run
				// between other threads' SAPs and costs a charge.
				dr := drain{w: v, left: e.newLit(), right: e.newLit()}
				if d.drain[v] == int32(len(ex)) {
					e.add(dr.right.Not(), e.lit(v, int(ex[len(ex)-1])))
				}
				charge := e.newLit()
				lits = append(lits[:0], charge, dr.left, dr.right)
				for _, y := range d.drainsBefore(t, v, sys.Model) {
					g := glue{y: int(y), lit: e.newLit()}
					e.add(g.lit.Not(), e.lit(g.y, v))
					dr.after = append(dr.after, g)
					lits = append(lits, g.lit)
				}
				e.add(lits...)
				d.drains = append(d.drains, dr)
				charges = append(charges, charge)
				continue
			}
			a := int(ex[m-1])
			g := gap{a: a, b: v, open: e.newLit()}
			d.gaps = append(d.gaps, g)
			// lits is the charge clause's premise, negated: the gap is
			// open, v's cross-thread predecessors ran by z, and no region
			// holds the mutex of a lock at z.
			cand := d.pending(t, m-1)
			lits = append(lits[:0], g.open.Not())
			for _, p := range cross[v] {
				lits = append(lits, e.ranBefore(p, a, v, cand).Not())
			}
			if s := sys.SAPs[v]; s.Kind == symexec.SAPLock {
				for _, r := range sys.Regions[s.Mutex] {
					if r.Thread != trace.ThreadID(t) {
						lits = append(lits, e.heldAt(r, a, v, cand))
					}
				}
			}
			charge := g.open
			if len(lits) > 1 {
				charge = e.newLit()
				e.add(append(lits, charge)...)
				// A write issued by a that drains after v leaves the
				// thread ready.
				for _, w := range cand {
					if d.drain[w] > m {
						e.add(charge, g.open.Not(), e.lit(v, int(w)).Not())
					}
				}
			}
			charges = append(charges, charge)
		}
	}
	d.charges = charges
	d.regs = make([][]sat.Lit, len(charges))
	e.d = d
}

// threadChains splits every thread into its execution chain and its
// buffered writes, and bounds each write's drain.
func (e *encoder) threadChains() *descent {
	sys := e.sys
	nt := len(sys.Threads)
	d := &descent{
		chain: make([]int32, e.n), issue: make([]int32, e.n), drain: make([]int32, e.n),
		exec: make([][]int32, nt), writes: make([][]int32, nt),
		prevExec: make([]int32, e.n), lastExec: make([]int32, nt),
	}
	// succ[w] lists a buffered write's hard successors in its own thread.
	succ := make([][]constraints.SAPRef, e.n)
	for _, edge := range sys.HardEdges {
		if a, b := edge[0], edge[1]; buffered(sys, a) && sys.SAPs[a].Thread == sys.SAPs[b].Thread {
			succ[a] = append(succ[a], b)
		}
	}
	for t, refs := range sys.Threads {
		for _, r := range refs {
			if buffered(sys, r) {
				d.chain[r] = -1
				d.issue[r] = int32(len(d.exec[t]) - 1)
				d.writes[t] = append(d.writes[t], int32(r))
				continue
			}
			d.chain[r] = int32(len(d.exec[t]))
			d.exec[t] = append(d.exec[t], int32(r))
		}
		// Hard edges run forward in program order, so a write's
		// successors are bounded before it is.
		for i := len(d.writes[t]) - 1; i >= 0; i-- {
			w := d.writes[t][i]
			bound := int32(len(d.exec[t]))
			for _, s := range succ[w] {
				if c := d.chain[s]; c >= 0 {
					bound = min(bound, c)
				} else {
					bound = min(bound, d.drain[s])
				}
			}
			d.drain[w] = bound
		}
	}
	return d
}

// pending returns thread t's buffered writes that may drain between chain
// SAPs j and j+1: issued by j, not bound to drain before it. The slice is
// reused by the next call.
func (d *descent) pending(t int, j int32) []int32 {
	d.pendingBuf = d.pendingBuf[:0]
	for _, w := range d.writes[t] {
		if d.issue[w] <= j && j < d.drain[w] {
			d.pendingBuf = append(d.pendingBuf, w)
		}
	}
	return d.pendingBuf
}

// drainsBefore returns the writes of thread t that may drain right before
// the buffered write w in a run of drains. Two drains of one thread with
// nothing between them can trade places without changing what any SAP
// reads or whether a hard edge holds, so some schedule with the fewest
// preemptions drains every such run in program order: the candidates are
// the earlier writes whose drain window overlaps w's — under TSO, whose
// stores drain in program order anyway, only the one right before w.
func (d *descent) drainsBefore(t int, w int, model vm.MemModel) []int32 {
	var out []int32
	for _, y := range d.writes[t] {
		if int(y) == w {
			break
		}
		if d.drain[y] > d.issue[w] {
			out = append(out, y)
		}
	}
	if model == vm.TSO && len(out) > 1 {
		out = out[len(out)-1:]
	}
	return out
}

// ranBefore returns a literal that holds when SAP p runs before z, the
// last SAP of v's thread before chain SAP v: v's chain predecessor a, or a
// write of cand draining between a and v.
func (e *encoder) ranBefore(p, a, v int, cand []int32) sat.Lit {
	if len(cand) == 0 {
		return e.lit(p, a)
	}
	x := e.newLit()
	e.add(x, e.lit(p, a).Not())
	for _, w := range cand {
		e.add(x, e.lit(p, int(w)).Not(), e.lit(int(w), v).Not())
	}
	return x
}

// heldAt returns a literal that may hold only when region r holds its
// mutex at z (see ranBefore): r locks before z and unlocks after it.
func (e *encoder) heldAt(r constraints.Region, a, v int, cand []int32) sat.Lit {
	held := e.newLit()
	lits := []sat.Lit{held.Not(), e.lit(int(r.Lock), a)}
	for _, w := range cand {
		in := e.newLit() // r locks before w, which drains before v
		e.add(in.Not(), e.lit(int(r.Lock), int(w)))
		e.add(in.Not(), e.lit(int(w), v))
		lits = append(lits, in)
	}
	e.add(lits...)
	if r.HasUnlock {
		e.add(held.Not(), e.lit(a, int(r.Unlock)))
		for _, w := range cand {
			e.add(held.Not(), e.lit(a, int(w)).Not(), e.lit(int(w), v).Not(), e.lit(int(w), int(r.Unlock)))
		}
	}
	return held
}

// widen extends the sequential counter (Sinz 2005) over the charges to the
// given width: register j of position i holds when at least j+1 of
// charges[:i+1] do, for j below width. Assuming atMost[k] allows at most k
// charges to hold.
func (e *encoder) widen(width int) {
	d := e.d
	var prev []sat.Lit
	for i, x := range d.charges {
		cur := d.regs[i]
		for j := len(cur); j < min(width, i+1); j++ {
			r := e.newLit()
			if j < len(prev) {
				e.add(prev[j].Not(), r)
			}
			if j == 0 {
				e.add(x.Not(), r)
			} else {
				e.add(x.Not(), prev[j-1].Not(), r)
			}
			cur = append(cur, r)
		}
		d.regs[i] = cur
		prev = cur
	}
	d.atMost = d.atMost[:0]
	for _, r := range prev {
		d.atMost = append(d.atMost, r.Not())
	}
}

// refineGaps learns the glue clauses the extracted order breaks. For
// each closed gap with another thread's SAP c inside, it adds
// ¬open → (c<a ↔ c<b). For each drain w that the order runs between chain
// SAPs a and b of its thread, with another thread's SAP c between a and w
// while the left literal holds, it adds
//
//	¬left ∨ (w<a) ∨ (b<w) ∨ ¬(c<w) ∨ (c<a)
//
// (c does not run between a and w while w drains between a and b), the
// mirror clause for the right literal with c between w and b, and, for a
// glue literal to write y with c between y and w, ¬glue ∨ ¬(y<c) ∨ ¬(c<w).
// It picks the c that blocked the later SAP — an in-between SAP the model
// orders right before it — else the first. A gap's clauses orient c the
// same way against a and b in every later model, and a drain's name its
// interval, so the refinement terminates. It returns the number of
// clauses added.
func (e *encoder) refineGaps(order []constraints.SAPRef) (n int) {
	d := e.d
	pos := e.positions(order)
	for _, g := range d.gaps {
		if e.holds(g.open) {
			continue
		}
		if c := e.intruder(order[pos[g.a]+1:pos[g.b]], g.b); c >= 0 {
			x, y := e.lit(c, g.a), e.lit(c, g.b)
			e.lemma(g.open, x.Not(), y)
			e.lemma(g.open, x, y.Not())
			n += 2
		}
	}
	if len(d.drains) == 0 {
		return n
	}
	l := &e.lin
	for t := range d.lastExec {
		d.lastExec[t] = -1
	}
	for _, r := range order {
		t := l.thread[r]
		d.prevExec[r] = d.lastExec[t]
		if d.chain[r] >= 0 {
			d.lastExec[t] = int32(r)
		}
	}
	for _, dr := range d.drains {
		w := dr.w
		a := int(d.prevExec[w])
		t, j := l.thread[w], d.chain[a]
		// interval holds the clauses' premise that w drains between a and
		// b, negated, leaving out what hard edges decide.
		interval := e.lemmaBuf[:0]
		if j > d.issue[w] {
			interval = append(interval, e.lit(w, a))
		}
		b := -1
		if j+1 < int32(len(d.exec[t])) {
			b = int(d.exec[t][j+1])
			if j+1 < d.drain[w] {
				interval = append(interval, e.lit(b, w))
			}
		}
		if e.holds(dr.left) {
			if c := e.intruder(order[pos[a]+1:pos[w]], w); c >= 0 {
				e.lemma(append(interval, dr.left.Not(), e.lit(c, w).Not(), e.lit(c, a))...)
				n++
			}
		}
		if b >= 0 && e.holds(dr.right) {
			if c := e.intruder(order[pos[w]+1:pos[b]], b); c >= 0 {
				e.lemma(append(interval, dr.right.Not(), e.lit(c, w), e.lit(b, c))...)
				n++
			}
		}
		e.lemmaBuf = interval
		for _, g := range dr.after {
			if !e.holds(g.lit) {
				continue
			}
			if c := e.intruder(order[pos[g.y]+1:pos[w]], w); c >= 0 {
				e.lemma(g.lit.Not(), e.lit(c, g.y), e.lit(w, c))
				n++
			}
		}
	}
	return n
}

// intruder picks the other-thread SAP of in, the SAPs an order puts
// between v and an earlier SAP of its thread, that refineGaps learns about:
// one with a model edge into v if any, else the first; -1 when in holds
// only v's own thread.
func (e *encoder) intruder(in []constraints.SAPRef, v int) int {
	l := &e.lin
	first := -1
	for _, c := range in {
		if l.thread[c] == l.thread[v] {
			continue
		}
		for _, s := range l.succ[l.start[c]:l.start[c+1]] {
			if int(s) == v {
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
