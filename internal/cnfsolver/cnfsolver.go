// Package cnfsolver is the SMT-style backend for CLAP's constraint
// systems: it encodes the order and mapping structure into CNF, runs the
// CDCL engine (internal/sat), and discharges the value-level constraints
// (Fpath, Fbug, symbolic addresses) by concrete evaluation in a lazy
// DPLL(T) loop with blocking clauses.
//
// The encoding is the paper's "one order variable per SAP" model made
// boolean: a variable x_{a<b} per unordered SAP pair. The paper's
// constraint counts grow as N³ in the number of shared accesses (§4.1)
// because of the cubic transitivity closure; this encoder instead leaves
// transitivity to a lazy theory: only the pairs mentioned by actual
// constraints get variables, and after each SAT model the
// induced relation is checked for cycles with the Pearce–Kelly order
// graph (internal/solver). Each cycle found becomes one refinement lemma
// — the disjunction of the negated edge literals along it — and when the
// relation is acyclic a linearization that switches threads only where
// the model forces it (linearize.go) is the witness total order.
//
// Session.SolveMinimal adds the paper's minimal-preemption goal (§4.2):
// a preemption charge per open program-order gap, a counter over the
// charges, and a descent under ever tighter bounds on the same session
// (descent.go).
//
// Symbolic addresses (CLAP §5: array accesses whose index is itself a
// read value) are a second lazy theory, address-split refinement: each
// model's symbolic addresses are evaluated under the mapping-implied
// value assignment, the memory SAPs partition into concrete alias
// classes, and read-from consistency is checked only within classes that
// actually alias. A violation becomes a lemma restricted to the aliasing
// subset plus the address valuation that produced it — the choice
// literals whose values the address evaluation consulted — so the solver
// can re-aim addresses without re-deriving orders (see refineAddrSplit
// for the completeness argument).
package cnfsolver

import (
	"context"
	"fmt"
	"time"

	"repro/internal/constraints"
	"repro/internal/ir"
	"repro/internal/sat"
	"repro/internal/solver"
	"repro/internal/symbolic"
	"repro/internal/symexec"
	"repro/internal/trace"
)

// Refinement budgets per Solve call. Each lazy or address round adds at
// least one lemma, so both loops converge; the bounds guard pathological
// instances. Address-split rounds re-aim symbolic addresses rather than
// reject a mapping, so they do not consume Options.MaxTheoryRounds.
const (
	maxLazyRounds = 5000 // transitivity (cycle-lemma) rounds
	maxAddrRounds = 5000 // address-split rounds
)

// Options tunes the CNF backend.
type Options struct {
	// MaxTheoryRounds bounds the lazy-refinement loop over value theory
	// rejections (default 200).
	MaxTheoryRounds int
	// Ctx cancels the solve (nil = never); polled each theory round and,
	// via the SAT engine's stop hook, inside each SAT call.
	Ctx context.Context
	// Deadline bounds each Solve or SolveMinimal call's wall time
	// (0 = none). Composes with Ctx.
	Deadline time.Duration
	// Progress, when set, receives periodic snapshots of the live solving
	// statistics (sampled from the SAT engine's stop-hook stride), for
	// progress heartbeats. Called from the solving goroutine; it must be
	// fast and must not call back into the solver.
	Progress func(Stats)
}

func (o *Options) fill() {
	if o.MaxTheoryRounds == 0 {
		o.MaxTheoryRounds = 200
	}
}

// Stats reports encoding size and solving effort.
type Stats struct {
	BoolVars     int
	Clauses      int64
	TheoryRounds int
	// LazyRounds counts order-refinement iterations (SAT models rejected
	// for a cyclic order relation or, during a descent, an extracted order
	// that breaks a closed gap); LazyLemmas counts the cycle and gap
	// lemmas those rounds added.
	LazyRounds int64
	LazyLemmas int64
	// AddrRounds counts address-split refinement iterations (SAT models
	// rejected for symbolic-address inconsistency); AddrLemmas counts the
	// lemmas those rounds added. Both stay zero when every address is
	// concrete.
	AddrRounds int64
	AddrLemmas int64
	// MappingBlocks counts mapping-refinement blocking clauses: theory
	// rejections of a read→write mapping (support clauses or projection
	// blocks) plus the retractable BlockMapping class blocks — the third
	// refinement kind next to cycle and address-split lemmas.
	MappingBlocks int64
	// Descents counts SolveMinimal's re-solves under a preemption bound;
	// DescentBound is the bound the last one assumed.
	Descents     int64
	DescentBound int
	// Solves counts DPLL(T) entries on the session (Solve and
	// SolveMinimal calls);
	// SessionReuse is the entries beyond the first, i.e. how often
	// the encoded system was re-entered instead of rebuilt.
	Solves int64
	// SATConflicts / SATDecisions / SATPropagations / SATRestarts /
	// SATLearned mirror the CDCL engine's own effort counters, for the
	// consolidated metrics registry. SATSolves counts individual engine
	// Solve calls (one per theory round).
	SATConflicts    int64
	SATDecisions    int64
	SATPropagations int64
	SATRestarts     int64
	SATLearned      int64
	SATSolves       int64
}

// SessionReuse reports how many DPLL(T) entries re-entered a live session
// rather than paying a fresh encode.
func (st *Stats) SessionReuse() int64 {
	if st.Solves <= 1 {
		return 0
	}
	return st.Solves - 1
}

// sample copies the CDCL engine's live counters into the stats.
func (st *Stats) sample(s *sat.Solver) {
	st.SATConflicts = s.Conflicts
	st.SATDecisions = s.Decisions
	st.SATPropagations = s.Propagations
	st.SATRestarts = s.Restarts
	st.SATLearned = s.Learned
}

// Solve computes a bug-reproducing schedule with the CNF backend.
func Solve(sys *constraints.System, opts Options) (*solver.Solution, *Stats, error) {
	return NewSession(sys, opts).Solve()
}

// Session is a re-entrant CNF solving session: the system is encoded
// once, and Solve (or SolveMinimal) may be called repeatedly — after
// adding retractable blocking clauses with BlockMapping, or simply to
// re-enter with a fresh deadline — without re-encoding. Learnt clauses, theory lemmas and
// variable activity all persist across calls, which is what makes
// re-entry cheaper than a fresh solver each attempt.
type Session struct {
	opts Options
	e    *encoder
	st   Stats
	// groups are the retractable clause groups holding the blocking
	// clauses added by BlockMapping and AssumeAdjacent; RetractBlocks
	// retires them all.
	groups []sat.Group
}

// NewSession encodes the system. The returned session is single-goroutine.
// Every system gets one: the encoding's size grows with the constraints,
// not with the square of the SAP count.
func NewSession(sys *constraints.System, opts Options) *Session {
	opts.fill()
	e := &encoder{sys: sys, n: len(sys.SAPs), s: sat.New(0)}
	for _, sap := range sys.SAPs {
		if sap.Kind.IsMemory() && sap.Addr == symexec.NoAddr {
			e.symbolicAddrs = true
		}
	}
	e.encode()
	sess := &Session{opts: opts, e: e}
	sess.refresh()
	return sess
}

// Stats returns a snapshot of the session's cumulative statistics.
func (sess *Session) Stats() Stats {
	sess.refresh()
	return sess.st
}

func (sess *Session) refresh() {
	sess.st.BoolVars = sess.e.s.NumVars()
	sess.st.Clauses = sess.e.clauses
	sess.st.sample(sess.e.s)
}

// assumeLits collects the activation literals of the live clause groups.
func (sess *Session) assumeLits() []sat.Lit {
	lits := make([]sat.Lit, len(sess.groups))
	for i, g := range sess.groups {
		lits[i] = g.Assume()
	}
	return lits
}

// Solve runs the DPLL(T) loop until a validated schedule emerges. The
// returned stats pointer aliases the session's cumulative statistics.
func (sess *Session) Solve() (*solver.Solution, *Stats, error) {
	sess.st.Solves++
	sol, err := sess.solve(sess.arm(), -1)
	sess.refresh()
	return sol, &sess.st, err
}

// arm starts a DPLL(T) entry: it fixes the entry's deadline and installs
// the SAT engine's stop hook, and returns the interrupt poll.
func (sess *Session) arm() func() bool {
	opts := sess.opts
	var deadline time.Time
	if opts.Deadline > 0 {
		deadline = time.Now().Add(opts.Deadline)
	}
	interrupted := func() bool {
		if opts.Ctx != nil {
			select {
			case <-opts.Ctx.Done():
				return true
			default:
			}
		}
		return !deadline.IsZero() && time.Now().After(deadline)
	}
	// The stop hook keeps a single CDCL call from outliving the budget; a
	// stopped call returns Unknown, which surfaces as *Interrupted. It is
	// also the live-progress sampling point: the engine polls it on a
	// conflict/decision stride, so publishing from it gives heartbeats a
	// view inside long SAT calls.
	var polls int64
	sess.e.s.Stop = func() bool {
		if opts.Progress != nil {
			if polls++; polls%16 == 0 {
				sess.refresh()
				opts.Progress(sess.st)
			}
		}
		return interrupted()
	}
	return interrupted
}

// solve is one DPLL(T) run under the live clause groups and, when bound
// is non-negative, the assumption that at most bound preemption charges
// hold (see descent.go). Every lemma it learns is valid for the whole
// system, so the session stays reusable whatever the outcome; an Unsat
// verdict under a bound only refutes that bound.
func (sess *Session) solve(interrupted func() bool, bound int) (*solver.Solution, error) {
	opts := sess.opts
	e := sess.e
	st := &sess.st
	assume := sess.assumeLits()
	if bound >= 0 {
		assume = append(assume, e.d.atMost[bound])
	}
	base := st.TheoryRounds
	lazyThisCall := 0
	addrThisCall := 0
	for round := 0; round < opts.MaxTheoryRounds; {
		st.TheoryRounds = base + round + 1
		if opts.Progress != nil {
			sess.refresh()
			opts.Progress(*st)
		}
		if interrupted() {
			return nil, &solver.Interrupted{Reason: "cnf theory loop cut short", Bound: -1}
		}
		st.SATSolves++
		switch e.s.Solve(assume...) {
		case sat.Sat:
		case sat.Unknown:
			return nil, &solver.Interrupted{Reason: "sat search cut short", Bound: -1}
		default:
			return nil, e.unsat(round + 1)
		}
		// Order theories first: reject models whose order relation is
		// cyclic (learning one lemma per cycle found), then, during a
		// descent, extracted orders that break a closed gap. These rounds
		// are cheap (incremental SAT + graph walks) and do not consume the
		// value-theory round budget.
		var order []constraints.SAPRef
		added := e.refineAcyclic()
		if added == 0 {
			order = e.linearize()
			if e.d != nil {
				added = e.refineGaps(order)
			}
		}
		if added > 0 {
			st.LazyRounds++
			st.LazyLemmas += int64(added)
			if lazyThisCall++; lazyThisCall > maxLazyRounds {
				return nil, fmt.Errorf("cnfsolver: order refinement did not converge in %d rounds", maxLazyRounds)
			}
			continue
		}
		if e.symbolicAddrs {
			// Address-split theory: evaluate every symbolic address under
			// the mapping-implied values and reject models whose read-from
			// choices contradict the resulting concrete alias classes. Like
			// the transitivity rounds, these repair the model rather than
			// reject a mapping, so they have their own budget.
			added, coarse := e.refineAddrSplit(order)
			if added == 0 && coarse {
				// No targeted lemma possible (a support escaped the choice
				// structure — not expected for preprocessed systems): fall
				// back to blocking the exact model projection, which keeps
				// the loop progressing at the cost of possibly excluding
				// untested linear extensions.
				e.blockModel()
				added = 1
			}
			if added > 0 {
				st.AddrRounds++
				st.AddrLemmas += int64(added)
				if addrThisCall++; addrThisCall > maxAddrRounds {
					return nil, fmt.Errorf("cnfsolver: address-split refinement did not converge in %d rounds", maxAddrRounds)
				}
				continue
			}
		}
		round++
		st.TheoryRounds = base + round
		w, err := e.sys.ValidateSchedule(order)
		if err == nil {
			return &solver.Solution{Order: order, Witness: w, Preemptions: w.Preemptions}, nil
		}
		// Theory rejection: derive the smallest sound conflict clause.
		// A violated path/bug condition depends only on the mappings in
		// its transitive support, so blocking that support kills every
		// model sharing it; otherwise fall back to the mapping projection.
		e.block(err)
		st.MappingBlocks++
	}
	return nil, fmt.Errorf("cnfsolver: theory refinement did not converge in %d rounds", opts.MaxTheoryRounds)
}

// Mapping returns, for each read, the choice index selected by the last
// model (0 = initial value, k = k-th candidate write) or -1 for free
// reads. Only meaningful immediately after a successful Solve.
func (sess *Session) Mapping() []int {
	e := sess.e
	m := make([]int, len(e.sys.Reads))
	for i := range e.sys.Reads {
		m[i] = e.currentChoice(i)
	}
	return m
}

// BlockMapping adds a retractable blocking clause forbidding the last
// model's read→write mapping class, activated on subsequent Solve calls.
// It is how a caller enumerates the distinct mapping classes of a system:
// Solve, BlockMapping, Solve, … until Unsat. Sound under symbolic
// addresses too: a successful Solve only returns models that passed
// address-split refinement, where every read value — and hence every
// address — is determined by the mapping alone.
//
// The clause negates the conjunction of each read's *selected* choice
// (the one Mapping reports), not the full mapVar assignment. The choice
// structure only enforces at-least-one, so on symbolic-address systems a
// model may set extra choice variables true besides the selected ones;
// blocking the full assignment would forbid one model per call and
// re-enumerate the same class once per feasible extra-assignment. The
// projection is still exhaustive: every class keeps a canonical model
// with exactly its selected choices true (choice variables occur
// positively only in the at-least-one clause, so flipping extras false
// preserves satisfaction), and that model violates no other class's
// blocking clause. It never re-enumerates: any future model of the same
// class has all the selected choices true again.
func (sess *Session) BlockMapping() {
	e := sess.e
	sess.st.MappingBlocks++
	g := e.s.NewGroup()
	lits := make([]sat.Lit, 0, len(e.choiceLit))
	for ri := range e.sys.Reads {
		if k := e.currentChoice(ri); k >= 0 {
			lits = append(lits, e.choiceLit[ri][k].Not())
		}
	}
	g.Add(lits...)
	e.clauses++
	sess.groups = append(sess.groups, g)
}

// RetractBlocks permanently deactivates every blocking clause added by
// BlockMapping, making the blocked mappings reachable again — the
// cross-query reuse hook: a later query re-enters the same encoded
// session with a clean slate but keeps all learnt clauses. Adjacency
// groups added by AssumeAdjacent are retired the same way.
func (sess *Session) RetractBlocks() {
	for _, g := range sess.groups {
		g.Retire()
	}
	sess.groups = sess.groups[:0]
}

// AssumeAdjacent adds the race-adjacency constraint group for memory SAPs
// a and b: subsequent Solve calls only accept schedules in which no
// synchronization operation separates the pair (either orientation). The
// encoding pins, for every sync SAP c, before(c,a) ↔ before(c,b) — every
// sync operation lands on the same side of both accesses. Other threads'
// memory accesses may still fall between them: a schedule in which only
// memory operations separate the pair leaves it happens-before-unordered,
// which is exactly the data-race criterion. Since every total order the
// session accepts covers all SAPs, the equivalence constrains the order
// the model linearizes to.
//
// The clauses ride the same assumption-guard machinery as BlockMapping:
// they are active only while their guard is assumed, and RetractBlocks
// retires them permanently. The races enumerator's per-pair loop is
// Retract → AssumeAdjacent(next pair) → Solve on one shared session, so
// the encoding, learnt clauses and theory lemmas amortize across pairs.
func (sess *Session) AssumeAdjacent(a, b constraints.SAPRef) {
	e := sess.e
	g := e.s.NewGroup()
	for c := 0; c < e.n; c++ {
		if c == int(a) || c == int(b) || !e.sys.SAP(constraints.SAPRef(c)).Kind.IsSync() {
			continue
		}
		x, y := e.lit(c, int(a)), e.lit(c, int(b))
		g.Add(x.Not(), y)
		g.Add(x, y.Not())
		e.clauses += 2
	}
	sess.groups = append(sess.groups, g)
}

// RegionConflict identifies two lock regions of the same mutex, in
// different threads, that are both entered and never released — no
// interleaving can serialize them, so the system is unsatisfiable for a
// reason worth naming (a bare empty clause would leave `clap explain`
// with nothing to report).
type RegionConflict struct {
	Mutex   ir.SyncID
	ThreadA trace.ThreadID
	LockA   constraints.SAPRef
	ThreadB trace.ThreadID
	LockB   constraints.SAPRef
}

// GroupID returns the constraint-group name of the mutex's lock
// serialization ("fso/lock/m<id>"), matching constraints.Groups — the
// same vocabulary the MUS shrinker uses, so explain output lines up.
func (c *RegionConflict) GroupID() string { return fmt.Sprintf("fso/lock/m%d", c.Mutex) }

func (c *RegionConflict) String() string {
	return fmt.Sprintf("%s: thread %d (lock at SAP %d) and thread %d (lock at SAP %d) both hold mutex m%d at the failure and never release it",
		c.GroupID(), c.ThreadA, c.LockA, c.ThreadB, c.LockB, c.Mutex)
}

// Unsat reports an unsatisfiable system.
type Unsat struct {
	Rounds int
	// Conflict, when set, names the structural reason: two never-released
	// lock regions that cannot coexist.
	Conflict *RegionConflict
}

// Error implements error.
func (u *Unsat) Error() string {
	if u.Conflict != nil {
		return fmt.Sprintf("cnfsolver: unsatisfiable: %s", u.Conflict)
	}
	return fmt.Sprintf("cnfsolver: unsatisfiable (after %d theory rounds)", u.Rounds)
}

type encoder struct {
	sys *constraints.System
	n   int
	s   *sat.Solver
	// pairVar maps an ordered SAP pair (a<b) to the SAT var meaning "SAP a
	// before SAP b"; only the pairs some constraint or lemma mentions get
	// one. pairs lists them in allocation order, the order every model
	// scan walks, so that a run's SAT calls do not depend on map order.
	pairVar map[[2]int32]int32
	pairs   []pair
	mapVars []int // read→write / init choice variables
	// choiceLit[readIdx][k] is the literal for the k-th choice of the
	// read (k=0: initial value, k=1..: candidate writes).
	choiceLit [][]sat.Lit
	clauses   int64
	// readIdx maps a read SAP's symbol to its index in sys.Reads; built
	// once in encode and shared by the support-clause construction, the
	// static value lemmas and the address-split theory.
	readIdx map[symbolic.SymID]int
	// symbolicAddrs reports whether any SAP has an unresolved address.
	// When set, each model additionally passes the address-split theory
	// (refineAddrSplit) before validation; once it does, read values are
	// functions of the mapping alone — the same invariant concrete systems
	// get for free — so mapping-level blocking stays sound.
	symbolicAddrs bool
	// conflicts collects never-released region pairs found during
	// encoding; the first one decorates the Unsat error.
	conflicts []RegionConflict

	// Lazy-transitivity state: the Pearce–Kelly order graph (reset each
	// refinement round), the linearization scratch and reusable lemma
	// buffers (staged holds a round's lemmas back-to-back, stagedEnd
	// their end offsets).
	og        *solver.OrderGraph
	lin       linScratch
	lemmaBuf  []sat.Lit
	staged    []sat.Lit
	stagedEnd []int
	// d is the preemption encoding, built by the first descent step of
	// SolveMinimal (nil before).
	d *descent
	// Refinement scratch: per-SAP resolved addresses (address split) and
	// per-SAP schedule positions (positions), reused across rounds.
	addrBuf []addrInfo
	posBuf  []int
}

// pair is one allocated order variable: v holds when SAP a precedes SAP
// b (a<b).
type pair struct{ a, b, v int32 }

// lit returns the literal for "a before b".
func (e *encoder) lit(a, b int) sat.Lit {
	if a == b {
		panic("cnfsolver: reflexive order literal")
	}
	neg := false
	if a > b {
		a, b = b, a
		neg = true
	}
	key := [2]int32{int32(a), int32(b)}
	v, ok := e.pairVar[key]
	if !ok {
		v = int32(e.s.NewVar())
		e.pairVar[key] = v
		e.pairs = append(e.pairs, pair{a: key[0], b: key[1], v: v})
	}
	return sat.MkLit(int(v), neg)
}

func (e *encoder) add(lits ...sat.Lit) {
	e.clauses++
	e.s.AddClause(lits...)
}

func (e *encoder) encode() {
	e.pairVar = make(map[[2]int32]int32)
	e.readIdx = make(map[symbolic.SymID]int, len(e.sys.Reads))
	for i := range e.sys.Reads {
		e.readIdx[e.sys.SAP(e.sys.Reads[i].Read).Sym.ID] = i
	}
	// Hard edges (Fmo, fork/join) are unit clauses.
	for _, edge := range e.sys.HardEdges {
		e.add(e.lit(int(edge[0]), int(edge[1])))
	}
	// Frw: read→write mapping choice variables. Free reads (outside the
	// cone of influence, see constraints.Preprocess) get no choice
	// structure at all: their values feed nothing the theory checks, so
	// any order is acceptable around them.
	for i := range e.sys.Reads {
		ri := &e.sys.Reads[i]
		if ri.Free {
			e.choiceLit = append(e.choiceLit, nil)
			continue
		}
		r, rs := int(ri.Read), e.sys.SAP(ri.Read)
		rivals := ri.AllRivals()
		choice := make([]sat.Lit, 0, len(ri.Cands)+1)
		initVar := e.s.NewVar()
		e.mapVars = append(e.mapVars, initVar)
		choice = append(choice, sat.MkLit(initVar, false))
		if ri.NoInit {
			// Preprocessing proved the initial value unobservable. The
			// variable stays (choiceLit indexing is positional) but is
			// pinned false.
			e.add(sat.MkLit(initVar, true))
		}
		// init choice: every definitely-same-address write is after r —
		// including writes pruned from Cands, which still exist in every
		// schedule.
		for _, w := range rivals {
			if same, _ := symexec.SameCell(rs, e.sys.SAP(w)); same {
				e.add(sat.MkLit(initVar, true), e.lit(r, int(w)))
			}
		}
		for _, w := range ri.Cands {
			mv := e.s.NewVar()
			e.mapVars = append(e.mapVars, mv)
			choice = append(choice, sat.MkLit(mv, false))
			// m → w before r.
			e.add(sat.MkLit(mv, true), e.lit(int(w), r))
			// m → every same-address rival is before w or after r.
			for _, w2 := range rivals {
				if same, _ := symexec.SameCell(rs, e.sys.SAP(w2)); w2 == w || !same {
					continue
				}
				e.add(sat.MkLit(mv, true), e.lit(int(w2), int(w)), e.lit(r, int(w2)))
			}
		}
		e.add(choice...) // at least one choice
		e.choiceLit = append(e.choiceLit, choice)
	}
	e.learnValueLemmas()
	// Fso locking: cross-thread regions do not overlap. Sorted mutex
	// order keeps the order-literal numbering (and thus the whole CNF)
	// identical run to run.
	for _, m := range e.sys.RegionMutexes() {
		regions := e.sys.Regions[m]
		for i := 0; i < len(regions); i++ {
			for j := i + 1; j < len(regions); j++ {
				a, b := regions[i], regions[j]
				if a.Thread == b.Thread {
					continue
				}
				switch {
				case a.HasUnlock && b.HasUnlock:
					e.add(e.lit(int(a.Unlock), int(b.Lock)), e.lit(int(b.Unlock), int(a.Lock)))
				case a.HasUnlock:
					e.add(e.lit(int(a.Unlock), int(b.Lock)))
				case b.HasUnlock:
					e.add(e.lit(int(b.Unlock), int(a.Lock)))
				default:
					// Two never-released regions cannot both exist. Record
					// the named conflict before poisoning the formula so
					// the Unsat error (and explain) can say which regions.
					e.conflicts = append(e.conflicts, RegionConflict{
						Mutex:   m,
						ThreadA: a.Thread,
						LockA:   a.Lock,
						ThreadB: b.Thread,
						LockB:   b.Lock,
					})
					e.add()
				}
			}
		}
	}
	// Fso wait/signal: each completed wait picks a waking signal inside
	// (begin, end); plain signals wake at most one wait.
	wakeVars := map[constraints.SAPRef][]sat.Lit{}
	for _, wi := range e.sys.Waits {
		choice := make([]sat.Lit, 0, len(wi.Cands))
		for _, s := range wi.Cands {
			kv := e.s.NewVar()
			choice = append(choice, sat.MkLit(kv, false))
			e.add(sat.MkLit(kv, true), e.lit(int(wi.Begin), int(s)))
			e.add(sat.MkLit(kv, true), e.lit(int(s), int(wi.End)))
			if e.sys.SAP(s).Kind == symexec.SAPSignal {
				wakeVars[s] = append(wakeVars[s], sat.MkLit(kv, false))
			}
		}
		e.add(choice...)
	}
	for _, vars := range wakeVars {
		for i := 0; i < len(vars); i++ {
			for j := i + 1; j < len(vars); j++ {
				e.add(vars[i].Not(), vars[j].Not())
			}
		}
	}
}

// unsat builds the Unsat error, attaching the first recorded structural
// conflict when encoding itself proved the system infeasible.
func (e *encoder) unsat(rounds int) *Unsat {
	u := &Unsat{Rounds: rounds}
	if len(e.conflicts) > 0 {
		u.Conflict = &e.conflicts[0]
	}
	return u
}

// refineAcyclic is the transitivity theory check: it orients every
// allocated pair variable per the current model into the order graph and
// learns one lemma per cycle discovered (the disjunction of the negated
// edge literals along the cycle — a clause every total order satisfies).
// It returns the number of lemmas added; zero means the relation is
// acyclic and linearize may order the model.
func (e *encoder) refineAcyclic() int {
	if e.og == nil {
		e.og = solver.NewOrderGraph(e.n)
	}
	e.og.Reset()
	for _, p := range e.pairs {
		from, to := int(p.a), int(p.b)
		if !e.s.Value(int(p.v)) {
			from, to = to, from
		}
		if e.og.AddEdge(constraints.SAPRef(from), constraints.SAPRef(to)) {
			continue
		}
		// The rejected edge closes a cycle: to →* from exists in the
		// graph. Every edge on that path is true in the model, so negating
		// them (plus the rejected edge) rules the cycle out for good.
		path := e.og.Path(constraints.SAPRef(to), constraints.SAPRef(from))
		lits := e.lemmaBuf[:0]
		for i := 0; i+1 < len(path); i++ {
			lits = append(lits, e.lit(int(path[i]), int(path[i+1])).Not())
		}
		lits = append(lits, e.lit(from, to).Not())
		e.lemmaBuf = lits
		e.stage(lits...)
	}
	return e.flush()
}

// stage buffers a refinement lemma until flush. A refinement scan reads
// the model as it goes, and adding a clause rewinds the SAT trail to
// level 0: a lemma added mid-scan would leave the rest of the scan
// reading unassigned variables instead of the model.
func (e *encoder) stage(lits ...sat.Lit) {
	e.staged = append(e.staged, lits...)
	e.stagedEnd = append(e.stagedEnd, len(e.staged))
}

// flush adds the staged lemmas and returns how many there were.
func (e *encoder) flush() int {
	start := 0
	for _, end := range e.stagedEnd {
		e.add(e.staged[start:end]...)
		start = end
	}
	n := len(e.stagedEnd)
	e.staged, e.stagedEnd = e.staged[:0], e.stagedEnd[:0]
	return n
}

// learnValueLemmas statically discharges the easy value constraints: for
// every Fpath/Fbug conjunct whose symbols all come from reads whose
// candidate values are constants, enumerate the candidate combinations and
// forbid the violating ones. This is theory-lemma learning done upfront —
// without it, value-heavy systems (the mutual-exclusion algorithms, where
// flags take constant values) would need one lazy refinement round per bad
// mapping.
func (e *encoder) learnValueLemmas() {
	constVals := func(ri int) ([]int64, bool) {
		info := e.sys.Reads[ri]
		vals := []int64{info.Init}
		for _, w := range info.Cands {
			c, ok := e.sys.SAP(w).Val.(*symbolic.IntConst)
			if !ok {
				return nil, false
			}
			vals = append(vals, c.V)
		}
		return vals, true
	}
	conjs := append(append([]symbolic.Expr{}, e.sys.Path...), e.sys.Bug)
	for _, c := range conjs {
		ids := symbolic.Syms(c, nil, nil)
		if len(ids) == 0 || len(ids) > 3 {
			continue
		}
		type dim struct {
			ri   int
			id   symbolic.SymID
			vals []int64
		}
		var dims []dim
		combos := 1
		ok := true
		for _, id := range ids {
			ri, found := e.readIdx[id]
			if !found || e.sys.Reads[ri].Free {
				ok = false
				break
			}
			vals, constOK := constVals(ri)
			if !constOK {
				ok = false
				break
			}
			dims = append(dims, dim{ri: ri, id: id, vals: vals})
			combos *= len(vals)
		}
		if !ok || combos > 256 {
			continue
		}
		env := symbolic.MapEnv{}
		idx := make([]int, len(dims))
		for k := 0; k < combos; k++ {
			rem := k
			for d := range dims {
				idx[d] = rem % len(dims[d].vals)
				rem /= len(dims[d].vals)
				env[dims[d].id] = dims[d].vals[idx[d]]
			}
			holds, err := symbolic.EvalBool(c, env)
			if err == nil && !holds {
				// Forbid this combination of choices.
				lits := make([]sat.Lit, len(dims))
				for d := range dims {
					lits[d] = e.choiceLit[dims[d].ri][idx[d]].Not()
				}
				e.add(lits...)
			}
		}
	}
}

// block forbids the rejected model. Two levels, most precise first:
//
//  1. A violated value condition depends only on the mappings in its
//     transitive support — block just those reads' current choices (a
//     proper theory conflict clause). Sound under symbolic addresses too:
//     block is only reached after address-split refinement accepted the
//     model, at which point every read value is determined by the mapping
//     alone (see refineAddrSplit).
//  2. Otherwise block the full mapping projection.
func (e *encoder) block(verr error) {
	if ve, ok := verr.(*constraints.ValidationError); ok && ve.FailedExpr != nil {
		if lits := e.supportClause(ve.FailedExpr); lits != nil {
			e.add(lits...)
			return
		}
	}
	lits := make([]sat.Lit, 0, len(e.mapVars))
	for _, v := range e.mapVars {
		lits = append(lits, sat.MkLit(v, e.s.Value(v)))
	}
	e.add(lits...)
}

// blockModel forbids the exact current model projection: every mapping
// choice plus every allocated pair literal. Coarse last resort for the
// never-expected case where address-split refinement cannot form a
// targeted lemma; under the lazy encoding it may also exclude untested
// linear extensions (the pre-address-split incompleteness), which is why
// it exists only as a fallback.
func (e *encoder) blockModel() {
	lits := make([]sat.Lit, 0, len(e.mapVars)+len(e.pairs))
	for _, v := range e.mapVars {
		lits = append(lits, sat.MkLit(v, e.s.Value(v)))
	}
	for _, p := range e.pairs {
		lits = append(lits, sat.MkLit(int(p.v), e.s.Value(int(p.v))))
	}
	e.add(lits...)
}

// currentChoice returns the selected choice index of read ri in the SAT
// model, or -1 if the read is free or no choice is set.
func (e *encoder) currentChoice(ri int) int {
	for k, lit := range e.choiceLit[ri] {
		if e.holds(lit) {
			return k
		}
	}
	return -1
}

// supportClause negates the current choices of every read in the
// expression's transitive value support, or nil when the support escapes
// the choice structure (a free read or an unset choice).
func (e *encoder) supportClause(expr symbolic.Expr) []sat.Lit {
	lits, ok := e.suppLits(symbolic.Syms(expr, nil, nil), map[int]bool{}, nil)
	if !ok {
		return nil
	}
	return lits
}

// suppLits appends the negated current choice of every read in the
// transitive value support of ids (each read's chosen write contributes
// its value expression's symbols in turn). ok=false when some symbol is
// not a constrained read or has no choice in the model — then no sound
// premise over choices exists.
func (e *encoder) suppLits(ids []symbolic.SymID, seen map[int]bool, lits []sat.Lit) ([]sat.Lit, bool) {
	for _, id := range ids {
		ri, ok := e.readIdx[id]
		if !ok || e.choiceLit[ri] == nil {
			return lits, false
		}
		if seen[ri] {
			continue
		}
		seen[ri] = true
		k := e.currentChoice(ri)
		if k < 0 {
			return lits, false
		}
		lits = append(lits, e.choiceLit[ri][k].Not())
		if k > 0 {
			// The mapped write's value has its own dependencies.
			var deep bool
			lits, deep = e.suppLits(symbolic.Syms(e.sys.SAP(e.sys.Reads[ri].Cands[k-1]).Val, nil, nil), seen, lits)
			if !deep {
				return lits, false
			}
		}
	}
	return lits, true
}
