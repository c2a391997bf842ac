// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with two-literal watching, VSIDS-style activity ordering, 1UIP
// clause learning and Luby restarts, plus a theory hook that makes it the
// boolean core of a DPLL(T) search.
//
// It stands in for the boolean core of the STP/SMT stack the paper builds
// on. internal/cnfsolver encodes CLAP's order variables, read→write
// mappings, lock serialization and wait/signal cardinality as CNF and
// checks the order, address and value theories in the hook; that CNF core
// is a step of the solving ladder on every hard reproduction, where it
// descends to the fewest preemptions. The solver is exercised against
// brute-force enumeration on random instances (with and without a
// lemma-adding hook) and on classic pigeonhole problems.
package sat

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Lit is a literal: variable index << 1 | sign (sign 1 = negated).
// Variables are numbered from 0.
type Lit int32

// MkLit builds a literal for variable v, negated when neg.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as ±(v+1), DIMACS style.
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// lbool is a three-valued boolean.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// Status is a solve verdict.
type Status int8

// Verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

type clause struct {
	lits     []Lit
	learnt   bool
	activity float64
}

// Solver is a CDCL SAT solver. Create with New, add clauses, call Solve.
//
// The solver is re-entrant: Solve may be called repeatedly, with clauses
// added in between, and keeps its learnt clauses across calls. Each Solve
// first rewinds to decision level 0, so a call with assumptions after a
// Sat verdict starts from a clean trail. Inside a call, the Theory hook
// sees every complete assignment and may add lemmas with AddLemma; the
// search takes them in without starting over.
type Solver struct {
	clauses []*clause
	learnts []*clause
	// originals keeps every added clause verbatim for DIMACS export
	// (AddClause simplifies units and satisfied clauses away internally),
	// stored flat: clause i is origLits[origEnd[i-1]:origEnd[i]].
	origLits []Lit
	origEnd  []int32
	// watches[int(l)] = clauses watching literal l (convention: the list
	// for l holds clauses in which l is watched). Dense by literal index —
	// propagate is the solver's inner loop and a map lookup per trail
	// literal dominated its profile.
	watches [][]*clause

	assign   []lbool
	level    []int32
	reason   []*clause
	trail    []Lit
	trailLim []int

	activity []float64
	varInc   float64
	order    *varHeap

	polarity []bool // phase saving

	propagated int
	ok         bool

	// Conflict-analysis scratch, reused across conflicts: analyze runs
	// once per conflict and allocated a map plus a growing slice each time.
	seen      []bool
	learntBuf []Lit
	addBuf    []Lit // normalize scratch
	// addLemmas scratch: the batch's clauses and its one-literal lemmas.
	lemmas []*clause
	units  []Lit

	// Problem clauses come out of slab arenas: large encodings (the CNF
	// backend emits tens of thousands of clauses) cost O(clauses/slab)
	// allocations instead of two per clause. Learnt clauses stay
	// individually heap-allocated — reduceDB churns them and the GC must
	// be able to reclaim the dropped half.
	clauseSlab []clause
	slabUsed   int
	litBlock   []Lit

	// Stats
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learned      int64
	Restarts     int64
	MaxLearnts   int

	// LastSolve holds the previous Solve call's effort in isolation —
	// the deltas of the cumulative counters above — so telemetry can
	// attribute work to individual calls on a long-lived session solver.
	LastSolve SolveStats

	// Stop, when set, is polled between conflicts; returning true aborts
	// Solve with Unknown. It is how deadline-governed callers (the CNF
	// backend) keep a single SAT call from outliving its budget.
	Stop func() bool

	// Theory, when set, is the theory check of a DPLL(T) search: Solve
	// calls it on every complete assignment, which it reads with Value. It
	// returns Sat to accept the assignment, which Solve then returns;
	// Unsat to reject it, after queueing with AddLemma at least one clause
	// the assignment violates or that mentions a variable the hook created
	// with NewVar; or Unknown to end Solve with Unknown. Solve adds the
	// queued lemmas when the hook returns, whatever its verdict (lemmas
	// queued by an accepting call make it a rejection), and goes on from
	// the lowest level where one of them is unit or stops conflicting.
	Theory func() Status
	// inTheory is set while the Theory hook runs: AddLemma queues only
	// then.
	inTheory bool
}

// New creates a solver over nvars variables.
func New(nvars int) *Solver {
	s := &Solver{
		varInc:     1,
		ok:         true,
		MaxLearnts: 10000,
	}
	s.grow(nvars)
	return s
}

func (s *Solver) grow(nvars int) {
	for len(s.assign) < nvars {
		s.assign = append(s.assign, lUndef)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, nil)
		s.activity = append(s.activity, 0)
		s.polarity = append(s.polarity, false)
		s.seen = append(s.seen, false)
		s.watches = append(s.watches, nil, nil)
		// Once the decision heap exists, a new variable joins it at once:
		// the Theory hook creates variables in the middle of a search, and
		// the search must decide them before the next complete assignment.
		if s.order != nil {
			s.order.push(len(s.assign) - 1)
		}
	}
}

// NumVars returns the variable count.
func (s *Solver) NumVars() int { return len(s.assign) }

// NewVar adds a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	s.grow(len(s.assign) + 1)
	return len(s.assign) - 1
}

func (s *Solver) value(l Lit) lbool {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

// allocLits copies lits into the flat literal arena and returns a
// capacity-capped subslice. Clause literal slices are swapped in place by
// the watch machinery but never grow, so packing them into shared blocks
// is safe.
func (s *Solver) allocLits(lits []Lit) []Lit {
	n := len(lits)
	if cap(s.litBlock)-len(s.litBlock) < n {
		size := 1 << 14
		if n > size {
			size = n
		}
		s.litBlock = make([]Lit, 0, size)
	}
	start := len(s.litBlock)
	s.litBlock = append(s.litBlock, lits...)
	return s.litBlock[start : start+n : start+n]
}

// newClause carves a problem clause out of the slab arena. Slabs are
// never appended to after creation, so &slab[i] pointers stay stable.
func (s *Solver) newClause(lits []Lit) *clause {
	if s.slabUsed == len(s.clauseSlab) {
		s.clauseSlab = make([]clause, 512)
		s.slabUsed = 0
	}
	c := &s.clauseSlab[s.slabUsed]
	s.slabUsed++
	c.lits = s.allocLits(lits)
	c.learnt = false
	c.activity = 0
	return c
}

// AddClause adds a clause between Solve calls (it returns false if the
// formula became trivially unsatisfiable). It rewinds the trail to level
// 0 first, so it is for clauses that do not depend on a model: an
// encoding, clause groups, or anything added before the next Solve.
// Clauses that refute the model under inspection go through AddLemma from
// the Theory hook instead.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	s.origLits = append(s.origLits, lits...)
	s.origEnd = append(s.origEnd, int32(len(s.origLits)))
	s.cancelUntil(0)
	out, keep := s.normalize(lits)
	if !keep {
		return true
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(out[0], nil) {
			s.ok = false
			return false
		}
		return s.propagate() == nil || func() bool { s.ok = false; return false }()
	}
	c := s.newClause(out)
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

// normalize sorts a copy of lits into the addBuf scratch, drops duplicate
// literals and literals false at level 0, and reports false when the
// clause is a tautology or already true at level 0.
func (s *Solver) normalize(lits []Lit) ([]Lit, bool) {
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	slices.Sort(ls)
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() {
			return nil, false // tautology
		}
		if val := s.value(l); val != lUndef && s.level[l.Var()] == 0 {
			if val == lTrue {
				return nil, false
			}
			continue
		}
		out = append(out, l)
		prev = l
	}
	return out, true
}

// AddLemma queues a clause from inside the Theory hook; Solve adds the
// queued clauses when the hook returns. A lemma joins the problem for
// good, like an AddClause clause, and WriteDIMACS exports it. Calling it
// outside the hook panics.
func (s *Solver) AddLemma(lits ...Lit) {
	if !s.inTheory {
		panic("sat: AddLemma outside the theory hook")
	}
	s.origLits = append(s.origLits, lits...)
	s.origEnd = append(s.origEnd, int32(len(s.origLits)))
}

// addLemmas takes in the lemmas queued since the from-th original clause.
// Each one is normalized as AddClause does at level 0, its literals are
// ordered non-false first and false ones by decreasing level, and it gets
// a backjump target: with every literal false, its second-highest level
// when the top level is unique, else the top level minus one; with one
// non-false literal, its highest false level (no backjump when that
// literal is true at or below it). The solver backjumps once, to the
// lowest target, attaches every lemma as a problem clause watched on its
// first two literals, and enqueues the ones that became unit with the
// lemma as reason. The ordering survives the backjump — it unassigns
// exactly the highest-level false literals, which sit right after the
// non-false ones — so the watches are the two best literals. A lemma that
// still conflicts, because a unit of the same batch falsified it, is left
// to propagate and the usual 1UIP analysis. It returns false when a lemma
// is false at level 0.
func (s *Solver) addLemmas(from int) bool {
	start := int32(0)
	if from > 0 {
		start = s.origEnd[from-1]
	}
	target := s.decisionLevel()
	lemmas := s.lemmas[:0]
	units := s.units[:0]
	rank := func(l Lit) int32 {
		if s.value(l) != lFalse {
			return math.MaxInt32
		}
		return s.level[l.Var()]
	}
	for _, end := range s.origEnd[from:] {
		lits, keep := s.normalize(s.origLits[start:end])
		start = end
		if !keep {
			continue
		}
		if len(lits) == 0 {
			s.ok = false
			return false
		}
		slices.SortStableFunc(lits, func(a, b Lit) int { return cmp.Compare(rank(b), rank(a)) })
		t := s.decisionLevel()
		switch {
		case len(lits) == 1:
			units = append(units, lits[0])
			t = 0
		case s.value(lits[1]) != lFalse:
			// Two non-false literals: the watches hold as they are.
		case s.value(lits[0]) == lTrue && s.level[lits[0].Var()] <= s.level[lits[1].Var()]:
			// True since before the lemma could turn unit.
		case s.value(lits[0]) != lFalse, s.level[lits[1].Var()] < s.level[lits[0].Var()]:
			t = int(s.level[lits[1].Var()])
		default:
			t = int(s.level[lits[0].Var()]) - 1
		}
		if len(lits) > 1 {
			lemmas = append(lemmas, s.newClause(lits))
		}
		target = min(target, t)
	}
	s.lemmas, s.units = lemmas, units
	s.cancelUntil(target)
	// Find every unit lemma before enqueueing any: an enqueued unit may
	// falsify a literal of a later lemma, which must then not look unit.
	n := 0
	for i, c := range lemmas {
		s.clauses = append(s.clauses, c)
		s.watch(c)
		if s.value(c.lits[0]) == lUndef && s.value(c.lits[1]) == lFalse {
			lemmas[n], lemmas[i] = lemmas[i], lemmas[n]
			n++
		}
	}
	for _, l := range units {
		if !s.enqueue(l, nil) {
			s.ok = false
			return false
		}
	}
	for _, c := range lemmas[:n] {
		s.enqueue(c.lits[0], c)
	}
	return true
}

func (s *Solver) watch(c *clause) {
	s.watches[int(c.lits[0])] = append(s.watches[int(c.lits[0])], c)
	s.watches[int(c.lits[1])] = append(s.watches[int(c.lits[1])], c)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) enqueue(l Lit, from *clause) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate runs unit propagation; it returns the conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	for s.propagated < len(s.trail) {
		l := s.trail[s.propagated]
		s.propagated++
		s.Propagations++
		falsified := l.Not()
		ws := s.watches[int(falsified)]
		kept := ws[:0]
		var conflict *clause
		for wi := 0; wi < len(ws); wi++ {
			c := ws[wi]
			if conflict != nil {
				kept = append(kept, c)
				continue
			}
			// Ensure the falsified literal is at position 1.
			if c.lits[0] == falsified {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Find a new watch.
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[int(c.lits[1])] = append(s.watches[int(c.lits[1])], c)
					moved = true
					break
				}
			}
			if moved {
				continue // watch moved away from falsified
			}
			// Clause is unit or conflicting.
			kept = append(kept, c)
			if !s.enqueue(c.lits[0], c) {
				conflict = c
			}
		}
		s.watches[int(falsified)] = kept
		if conflict != nil {
			return conflict
		}
	}
	return nil
}

// analyze performs 1UIP conflict analysis, returning the learnt clause
// (with the asserting literal first) and the backjump level. The returned
// slice is scratch owned by the solver, valid until the next analyze call —
// callers copy it when retaining (Solve copies into the learnt clause).
func (s *Solver) analyze(conflict *clause) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // slot 0 for the asserting literal
	// seen is all-false between calls: the trail walk below unsets every
	// current-level var it set, and the lower-level residue (exactly the
	// vars of learnt[1:]) is cleared before returning.
	seen := s.seen
	counter := 0
	var p Lit = -1
	c := conflict
	idx := len(s.trail) - 1

	for {
		for _, q := range c.lits {
			if p >= 0 && q == p {
				continue
			}
			v := q.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Next literal on the trail at the current level.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		c = s.reason[p.Var()]
		seen[p.Var()] = false
		counter--
		idx--
		if counter == 0 {
			break
		}
	}
	learnt[0] = p.Not()
	for _, q := range learnt[1:] {
		seen[q.Var()] = false
	}
	s.learntBuf = learnt

	// Backjump level: the highest level among the other literals.
	bl := 0
	for i := 1; i < len(learnt); i++ {
		if int(s.level[learnt[i].Var()]) > bl {
			bl = int(s.level[learnt[i].Var()])
		}
	}
	// Move a literal of the backjump level to position 1 (watching).
	if len(learnt) > 1 {
		mi := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[mi].Var()] {
				mi = i
			}
		}
		learnt[1], learnt[mi] = learnt[mi], learnt[1]
	}
	return learnt, bl
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.order != nil {
		s.order.update(v)
	}
}

// reduceDB discards the less recently useful half of the learnt clauses
// (standard CDCL housekeeping, keyed on clause activity set at learn time);
// clauses currently acting as implication reasons and binary clauses are
// kept. The watch lists are rebuilt for the survivors.
func (s *Solver) reduceDB() {
	reasons := map[*clause]bool{}
	for _, c := range s.reason {
		if c != nil {
			reasons[c] = true
		}
	}
	kept := make([]*clause, 0, len(s.learnts)/2+1)
	// The learnts slice is in learn order; activity decays via varInc, so
	// later clauses have lower activity values — keep the newer half plus
	// protected clauses from the older half.
	half := len(s.learnts) / 2
	drop := map[*clause]bool{}
	for i, c := range s.learnts {
		if i < half && !reasons[c] && len(c.lits) > 2 {
			drop[c] = true
			continue
		}
		kept = append(kept, c)
	}
	if len(drop) == 0 {
		return
	}
	s.learnts = kept
	for li, ws := range s.watches {
		filtered := ws[:0]
		for _, c := range ws {
			if !drop[c] {
				filtered = append(filtered, c)
			}
		}
		s.watches[li] = filtered
	}
}

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = nil
		if s.order != nil {
			s.order.push(v)
		}
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.propagated = len(s.trail)
}

// luby computes the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			i -= (1 << uint(k-1)) - 1
			k = 0
		}
	}
}

// SolveStats is one Solve call's isolated search effort: the deltas of
// the solver's cumulative counters over that call.
type SolveStats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learned      int64
	Restarts     int64
}

// Solve decides satisfiability. Assumptions, if given, are enforced as
// decision-level-1 choices; Unsat under assumptions means no model extends
// them. With a Theory hook, Sat means the hook accepted the model.
func (s *Solver) Solve(assumptions ...Lit) Status {
	// LastSolve is computed as a delta on every exit path: Solve returns
	// from half a dozen places, so the bookkeeping lives in one defer.
	at := SolveStats{
		Conflicts: s.Conflicts, Decisions: s.Decisions,
		Propagations: s.Propagations, Learned: s.Learned, Restarts: s.Restarts,
	}
	defer func() {
		s.LastSolve = SolveStats{
			Conflicts:    s.Conflicts - at.Conflicts,
			Decisions:    s.Decisions - at.Decisions,
			Propagations: s.Propagations - at.Propagations,
			Learned:      s.Learned - at.Learned,
			Restarts:     s.Restarts - at.Restarts,
		}
	}()
	if !s.ok {
		return Unsat
	}
	// Rewind any leftover trail from a previous Solve: a Sat verdict leaves
	// the model assigned, and re-entering with assumptions on top of stale
	// decision levels would corrupt the assumption indexing.
	s.cancelUntil(0)
	// The heap persists across calls: cancelUntil pushes unassigned vars
	// back, and grow pushes every variable created after this point.
	if s.order == nil {
		s.order = newVarHeap(s)
		for v := 0; v < len(s.assign); v++ {
			if s.assign[v] == lUndef {
				s.order.push(v)
			}
		}
	}
	restart := int64(1)
	conflictsAtRestart := int64(0)
	budget := luby(restart) * 64

	for {
		conflict := s.propagate()
		if conflict != nil {
			s.Conflicts++
			conflictsAtRestart++
			if s.Stop != nil && s.Conflicts&255 == 0 && s.Stop() {
				return Unknown
			}
			if s.decisionLevel() == 0 {
				// A level-0 conflict refutes the formula itself. Without
				// ok=false a later call would resume propagation past the
				// conflicting literal and miss it.
				s.ok = false
				return Unsat
			}
			// Backjump to the learnt clause's natural level, even when that
			// is below the assumption levels: the decision loop re-enqueues
			// assumptions on the way back up, and an assumption falsified by
			// the learnt clause is caught there as Unsat-under-assumptions.
			// (Clamping bl to the assumption level instead would enqueue
			// unit learnts with a nil reason at a non-zero level, which a
			// later conflict analysis at that level would dereference.)
			learnt, bl := s.analyze(conflict)
			s.cancelUntil(bl)
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], nil) {
					s.ok = false
					return Unsat
				}
			} else {
				c := &clause{lits: append([]Lit(nil), learnt...), learnt: true, activity: s.varInc}
				s.learnts = append(s.learnts, c)
				s.Learned++
				s.watch(c)
				if !s.enqueue(learnt[0], c) {
					return Unsat
				}
			}
			s.varInc /= 0.95
			if s.MaxLearnts > 0 && len(s.learnts) > s.MaxLearnts {
				s.reduceDB()
			}
			continue
		}
		if conflictsAtRestart >= budget && s.decisionLevel() > len(assumptions) {
			// Restart.
			restart++
			s.Restarts++
			conflictsAtRestart = 0
			budget = luby(restart) * 64
			s.cancelUntil(len(assumptions))
			continue
		}
		// Assumption decisions first.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				// Already implied: open an empty level to keep indexing.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(a, nil)
			continue
		}
		if s.Stop != nil && s.Decisions&255 == 0 && s.Stop() {
			return Unknown
		}
		// Pick a branching variable.
		v := -1
		for s.order.size() > 0 {
			cand := s.order.pop()
			if s.assign[cand] == lUndef {
				v = cand
				break
			}
		}
		if v == -1 {
			if s.Theory == nil {
				return Sat
			}
			// The DPLL(T) check. Its lemmas are the originals recorded from
			// here on; addLemmas integrates them, and propagation resumes
			// from the level they backjumped to.
			from := len(s.origEnd)
			s.inTheory = true
			verdict := s.Theory()
			s.inTheory = false
			queued := len(s.origEnd) > from
			if queued && !s.addLemmas(from) {
				return Unsat
			}
			switch {
			case verdict == Unknown:
				return Unknown
			case queued:
				continue
			case verdict == Sat:
				return Sat
			}
			// A rejection without a lemma would meet the same assignment
			// again.
			return Unknown
		}
		s.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(MkLit(v, !s.polarity[v]), nil)
	}
}

// Value returns the model value of variable v after Sat, or its value in
// the assignment the Theory hook inspects; an unassigned variable (one
// the hook just created) reads false.
func (s *Solver) Value(v int) bool { return s.assign[v] == lTrue }

// Model returns the full model after Sat.
func (s *Solver) Model() []bool {
	m := make([]bool, len(s.assign))
	for v := range m {
		m[v] = s.assign[v] == lTrue
	}
	return m
}

// varHeap is a max-heap over variable activity.
type varHeap struct {
	s    *Solver
	heap []int
	pos  []int
}

func newVarHeap(s *Solver) *varHeap {
	h := &varHeap{s: s, pos: make([]int, len(s.assign))}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

func (h *varHeap) size() int { return len(h.heap) }

func (h *varHeap) less(i, j int) bool {
	return h.s.activity[h.heap[i]] > h.s.activity[h.heap[j]]
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.heap) && h.less(l, best) {
			best = l
		}
		if r < len(h.heap) && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *varHeap) push(v int) {
	if v < len(h.pos) && h.pos[v] != -1 {
		return
	}
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
	h.heap = append(h.heap, v)
	h.pos[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	h.swap(0, len(h.heap)-1)
	h.heap = h.heap[:len(h.heap)-1]
	h.pos[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) update(v int) {
	if v < len(h.pos) && h.pos[v] != -1 {
		h.up(h.pos[v])
	}
}
