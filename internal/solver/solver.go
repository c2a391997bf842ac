// Package solver implements CLAP's sequential constraint solver: the
// decision procedure that computes a bug-reproducing schedule from the
// constraint system.
//
// As the paper observes (§4), CLAP's queries are not general SMT: "the
// solver only needs to compute a solution for the order variables that
// essentially maps each Read to a certain Write in a discrete finite
// domain, subject to the order constraints." The procedure here decides
// exactly that class:
//
//  1. Map every completed wait to a waking signal (Fso's cardinality
//     constraint), every read to a candidate write or the initial value
//     (Frw), and order every cross-thread pair of lock regions (Fso's
//     locking constraint). Each decision adds order edges to a growing
//     order graph; a cycle refutes the branch (chronological backtracking
//     with two-sided pruning — a forced side is committed immediately).
//  2. Evaluate the value assignment induced by the mapping and check
//     Fpath ∧ Fbug.
//  3. Extract a total order (schedule) as a linear extension of the order
//     graph with the fewest preemptive context switches, by iterative
//     deepening on the preemption bound — the paper's minimal
//     context-switch property (§4.2).
//  4. Re-validate the schedule against the full system (semantic ground
//     truth), retrying other extensions or mappings when a residual
//     constraint (e.g. a symbolic-address equality) fails.
//
// Any returned solution therefore satisfies every constraint family and is
// guaranteed to replay to the same failure.
package solver

import (
	"context"
	"fmt"
	"time"

	"repro/internal/constraints"
	"repro/internal/schedule"
	"repro/internal/symbolic"
	"repro/internal/symexec"
)

// Fixed search budgets.
const (
	// extensionRetries is how many distinct linear extensions to try per
	// complete mapping before backtracking a decision.
	extensionRetries = 8
	// maxDecisions caps total decision-node expansions so pathological
	// systems fail fast instead of hanging.
	maxDecisions = 5_000_000
	// extendNodeBudget caps the linear-extension walk per complete
	// mapping; exhausting it counts as "no extension within the bound",
	// keeping minimal-mode sweeps from wandering exponentially at
	// infeasible bounds.
	extendNodeBudget = 10_000
	// minimalSearchLimit caps the iterative-deepening bound in minimal
	// mode; failures needing more preemptions are solved with an explicit
	// MaxPreemptions bound, as the racey stress test is.
	minimalSearchLimit = 16
	// genFallbackBound: for preemption bounds up to this value the solver
	// first tries exhaustive bounded schedule generation with validation —
	// at low bounds the schedule space is small and enumeration decides
	// satisfiability exactly and cheaply, where the mapping search would
	// grind through huge numbers of order-infeasible mappings.
	genFallbackBound = 3
)

// Search budgets that tests starve to reach the rescue pass.
var (
	// genScheduleBudget caps the fallback enumeration (candidates); on
	// overflow the mapping search takes over for the bound.
	genScheduleBudget = 40_000
	// genEscalateBudget is the enumeration cap for the minimal-mode rescue
	// pass: when the whole bound sweep fails but some low bound's
	// enumeration had been capped, those bounds are re-enumerated with
	// this budget before the solver declares unsat — the enumerator
	// decides low bounds exactly where the budgeted mapping search may
	// thrash. Negative disables the pass.
	genEscalateBudget = 2_000_000
	// boundDecisionBudget caps mapping-search decisions per bound in
	// minimal mode: rather than prove an infeasible low bound
	// unsatisfiable exhaustively, the sweep moves on — minimality becomes
	// approximate, matching the paper's own segment-based approximation of
	// context switches.
	boundDecisionBudget int64 = 60_000
)

// Options tunes the search.
type Options struct {
	// MaxPreemptions bounds the schedule's preemptive context switches.
	// Negative means iterate 0,1,2,… and return the minimal one found
	// (up to 16 preemptions).
	MaxPreemptions int
	// CapturePartial, when set, keeps a snapshot of the order graph's
	// topological order at the deepest decision prefix the search reached,
	// in Stats.Partial. For failed or interrupted solves this is the
	// attempt's best partial schedule — the timeline layer renders losing
	// portfolio attempts from it. Off by default (the snapshot costs one
	// O(#SAPs) copy per new deepest prefix).
	CapturePartial bool
	// Progress, when set, receives periodic snapshots of the live search
	// statistics (sampled from the same stride as interrupt polling), for
	// progress heartbeats on long solves. Called from the solving
	// goroutine; it must be fast and must not call back into the solver.
	Progress func(Stats)
	// Ctx cancels the search between decision expansions (nil = never).
	// Cancellation surfaces as *Interrupted with the partial Stats intact.
	Ctx context.Context
	// Deadline bounds the solve's wall time (0 = none). It composes with
	// Ctx: whichever fires first interrupts the search.
	Deadline time.Duration
}

// Solution is a bug-reproducing schedule.
type Solution struct {
	Order   []constraints.SAPRef
	Witness *constraints.Witness
	// Preemptions is the schedule's preemptive context-switch count.
	Preemptions int
}

// Stats reports search effort.
type Stats struct {
	Decisions   int64
	Backtracks  int64
	Extensions  int64
	Validations int64
	// BoundReached is the last preemption bound the search explored —
	// partial-progress diagnostics for interrupted solves.
	BoundReached int
	// Refuted is the number of leading preemption bounds 0, 1, …,
	// Refuted−1 that exhaustive schedule enumeration proved empty: no
	// schedule has fewer than Refuted preemptions. A bound the search gave
	// up on (an enumeration cap, boundDecisionBudget) ends the count.
	Refuted int
	// Partial is a SAP order consistent with every hard edge plus the
	// decisions of the deepest prefix the search reached; PartialDepth is
	// that prefix's decision depth. Captured only under
	// Options.CapturePartial, nil otherwise.
	Partial      []constraints.SAPRef
	PartialDepth int
}

// Unsat is returned when the system has no solution within the options'
// bounds.
type Unsat struct{ Reason string }

// Error implements error.
func (u *Unsat) Error() string { return "solver: unsatisfiable: " + u.Reason }

// Interrupted is returned when a deadline or context cancellation cut the
// search short. The Stats returned alongside it describe the partial work
// (decisions expanded, bound reached), so callers can diagnose what the
// budget bought before moving on.
type Interrupted struct {
	Reason string
	// Bound is the preemption bound being explored at the interrupt.
	Bound int
}

// Error implements error.
func (e *Interrupted) Error() string {
	return fmt.Sprintf("solver: interrupted at bound %d: %s", e.Bound, e.Reason)
}

// Solve runs the decision procedure.
func Solve(sys *constraints.System, opts Options) (*Solution, *Stats, error) {
	s := &search{sys: sys, opts: opts, stats: &Stats{}, maxDepth: -1}
	if opts.Deadline > 0 {
		s.deadline = time.Now().Add(opts.Deadline)
	}
	s.init()
	if s.hardUnsat {
		return nil, s.stats, &Unsat{Reason: "hard order constraints are cyclic"}
	}
	if opts.MaxPreemptions >= 0 {
		s.stats.BoundReached = opts.MaxPreemptions
		sol, err := s.solveWithBound(opts.MaxPreemptions)
		return sol, s.stats, err
	}
	// Minimal context switches: increase the bound until a solution
	// appears (§4.2 "we can start from the constraint with zero thread
	// context switch, and increment ... until a solution is found"). Each
	// bound gets a bounded effort so one infeasible bound cannot stall the
	// sweep.
	s.boundBudget = boundDecisionBudget
	s.genCapped = make([]bool, genFallbackBound+1)
	for c := 0; c <= minimalSearchLimit; c++ {
		s.boundStart = s.stats.Decisions
		s.stats.BoundReached = c
		sol, err := s.solveWithBound(c)
		if err == nil {
			return sol, s.stats, nil
		}
		if _, ok := err.(*Unsat); !ok {
			return nil, s.stats, err
		}
	}
	// Rescue pass: the sweep failed, but any low bound whose enumeration
	// was capped is still undecided — the budgeted mapping search that took
	// over can thrash on shapes the enumerator handles easily (a valid
	// schedule can sit far into the generation stream yet be cheap to reach
	// by streaming validation). Re-enumerate those bounds, in order, with
	// the escalated budget; bounds the first pass proved empty stay proved.
	if genEscalateBudget > 0 {
		stillCapped := false
		for c := 0; c <= min(genFallbackBound, minimalSearchLimit); c++ {
			if !s.genCapped[c] {
				continue
			}
			s.bound = c
			s.stats.BoundReached = c
			sol, decided := s.tryGenerate(c, genLimits{
				MaxSchedules: genEscalateBudget,
				MaxCSPSets:   10_000_000,
				MaxWalkNodes: 500_000_000,
			})
			if s.pendingIntr != nil {
				return nil, s.stats, s.pendingIntr
			}
			if sol != nil {
				return sol, s.stats, nil
			}
			if !decided {
				stillCapped = true
			} else if c == s.stats.Refuted {
				s.stats.Refuted++
			}
		}
		if stillCapped {
			// Even the escalated enumeration overflowed its budget, so the
			// low bounds remain undecided — a generic "no schedule" verdict
			// here would misreport budget exhaustion as unsatisfiability.
			return nil, s.stats, fmt.Errorf("solver: rescue enumeration exhausted its budget with low preemption bounds undecided (escalate budget %d)", genEscalateBudget)
		}
	}
	return nil, s.stats, &Unsat{Reason: fmt.Sprintf("no schedule within %d preemptions", minimalSearchLimit)}
}

// decision is one finite-domain choice point.
type decision struct {
	kind  decisionKind
	read  int // index into sys.Reads
	wait  int // index into sys.Waits
	a, b  constraints.SAPRef
	mutex int
}

type decisionKind uint8

const (
	decWait decisionKind = iota
	decRead
	decLockPair
)

// search is the solver state.
type search struct {
	sys   *constraints.System
	opts  Options
	stats *Stats

	// g is the order graph (hard edges plus decided edges) with
	// incrementally maintained topological order.
	g *ordGraph
	// hardUnsat is set when the hard edges alone are cyclic: the system
	// has no schedule at any bound.
	hardUnsat bool

	decisions []decision
	// chosenWrite[readIdx] = candidate index (-1 init value), set during
	// search.
	chosenWrite []int
	chosenWake  []int

	// readIdxOfSym maps a symbol to the read decision that binds it;
	// conjAll is Fpath plus Fbug, checked eagerly as reads get decided.
	readIdxOfSym map[symbolic.SymID]int
	conjAll      []symbolic.Expr

	bound       int
	boundBudget int64 // per-bound decision cap (minimal mode), 0 = off
	boundStart  int64
	// genCapped[b] records that bound b's first-pass enumeration hit a
	// budget cap (minimal mode only): such bounds were not decided
	// exhaustively, so the rescue pass revisits them with the escalated
	// budget before the sweep concludes unsat.
	genCapped []bool

	// deadline is the absolute wall-clock cutoff (zero = none); pendingIntr
	// carries an interrupt detected inside a generator callback out to
	// solveWithBound.
	deadline    time.Time
	pendingIntr *Interrupted

	// polls counts interrupt polls; every progressStride of them the live
	// stats are published through opts.Progress.
	polls int64

	// maxDepth is the deepest decision prefix reached so far (-1 before
	// the first decide call); used by the CapturePartial snapshot.
	maxDepth int
}

// progressStride is how many interrupt polls pass between Progress
// callbacks: frequent enough for a live heartbeat, far off the hot path.
const progressStride = 1024

func (s *search) init() {
	n := len(s.sys.SAPs)
	s.g = newOrdGraph(n)
	for _, e := range s.sys.HardEdges {
		if !s.g.addEdge(e[0], e[1]) {
			// The unconditional constraints are already contradictory —
			// there is no schedule to find at any bound.
			s.hardUnsat = true
		}
	}
	// Decision agenda: waits first (few, highly constrained), then reads
	// ordered by candidate count (static MRV), then lock region pairs.
	for i := range s.sys.Waits {
		s.decisions = append(s.decisions, decision{kind: decWait, wait: i})
	}
	// Reads whose symbols flow into some SAP's address expression are
	// address-formers: until they are decided, no symbolic-address
	// equality check can fire, so they go first. Within each class, fewer
	// candidates first (static MRV).
	addrFormer := map[symbolic.SymID]bool{}
	for _, sap := range s.sys.SAPs {
		if sap.AddrIndex != nil {
			for _, id := range symbolic.Syms(sap.AddrIndex, nil, nil) {
				addrFormer[id] = true
			}
		}
	}
	// Free reads (outside the cone of influence, see constraints.Preprocess)
	// need no mapping decision: any schedule position yields a value the
	// remaining constraints never observe.
	reads := make([]int, 0, len(s.sys.Reads))
	for i := range s.sys.Reads {
		if !s.sys.Reads[i].Free {
			reads = append(reads, i)
		}
	}
	class := func(ri int) int {
		if addrFormer[s.sys.SAP(s.sys.Reads[ri].Read).Sym.ID] {
			return 0
		}
		return 1
	}
	less := func(a, b int) bool {
		ca, cb := class(a), class(b)
		if ca != cb {
			return ca < cb
		}
		// Order by the full rival-set size, not the pruned candidate
		// count: pruning shrinks chains non-uniformly, and sorting by the
		// pruned counts interleaves same-location read-modify-write chains
		// out of program order — which starves the one-sided rival
		// placement below of the mixed placements those chains need. The
		// stable sort over equal full-set sizes keeps chain reads in
		// program order; the pruned Cands still shrink the branching.
		return len(s.sys.Reads[a].AllRivals()) < len(s.sys.Reads[b].AllRivals())
	}
	for i := 1; i < len(reads); i++ {
		for j := i; j > 0 && less(reads[j], reads[j-1]); j-- {
			reads[j], reads[j-1] = reads[j-1], reads[j]
		}
	}
	for _, ri := range reads {
		s.decisions = append(s.decisions, decision{kind: decRead, read: ri})
	}
	// Regions is a map: iterate its keys sorted or the decision agenda —
	// and with it the whole search — varies run to run.
	for _, m := range s.sys.RegionMutexes() {
		regions := s.sys.Regions[m]
		for i := 0; i < len(regions); i++ {
			for j := i + 1; j < len(regions); j++ {
				if regions[i].Thread == regions[j].Thread {
					continue // ordered by program order already
				}
				s.decisions = append(s.decisions, decision{
					kind:  decLockPair,
					a:     constraints.SAPRef(i),
					b:     constraints.SAPRef(j),
					mutex: int(m),
				})
			}
		}
	}
	s.chosenWrite = make([]int, len(s.sys.Reads))
	s.chosenWake = make([]int, len(s.sys.Waits))
	for i := range s.chosenWrite {
		s.chosenWrite[i] = -2
	}
	s.readIdxOfSym = map[symbolic.SymID]int{}
	for i, ri := range s.sys.Reads {
		s.readIdxOfSym[s.sys.SAP(ri.Read).Sym.ID] = i
	}
	s.conjAll = append(append([]symbolic.Expr{}, s.sys.Path...), s.sys.Bug)
}

// errUndecided aborts a partial evaluation when a dependency is not yet
// mapped.
var errUndecided = fmt.Errorf("solver: symbol not yet decided")

// partialEnv resolves symbols from the current (possibly partial) mapping,
// also checking address equality for symbolic-address mappings.
type partialEnv struct {
	s    *search
	vals map[symbolic.SymID]int64
	bad  bool // an address-equality check failed during resolution
}

// Value implements symbolic.Env by resolving through the chosen mappings.
func (pe *partialEnv) Value(id symbolic.SymID) (int64, bool) {
	v, err := pe.resolve(id, 0)
	if err != nil {
		return 0, false
	}
	return v, true
}

func (pe *partialEnv) resolve(id symbolic.SymID, depth int) (int64, error) {
	if v, ok := pe.vals[id]; ok {
		return v, nil
	}
	if depth > len(pe.s.sys.Reads)+1 {
		return 0, fmt.Errorf("solver: cyclic value dependency")
	}
	ri, ok := pe.s.readIdxOfSym[id]
	if !ok {
		return 0, fmt.Errorf("solver: unknown symbol %d", id)
	}
	info := pe.s.sys.Reads[ri]
	choice := pe.s.chosenWrite[ri]
	if choice == -2 {
		return 0, errUndecided
	}
	var val int64
	if choice == -1 {
		val = info.Init
	} else {
		w := pe.s.sys.SAP(info.Cands[choice])
		// Pre-resolve the write expression's dependencies.
		for _, dep := range symbolic.Syms(w.Val, nil, nil) {
			if _, err := pe.resolve(dep, depth+1); err != nil {
				return 0, err
			}
		}
		v, err := symbolic.EvalInt(w.Val, pe)
		if err != nil {
			return 0, err
		}
		val = v
		// Symbolic-address mappings are only meaningful when the read and
		// write addresses agree; check as soon as both are evaluable.
		r := pe.s.sys.SAP(info.Read)
		if r.Addr == symexec.NoAddr || w.Addr == symexec.NoAddr {
			ra, err1 := pe.addrOf(r, depth)
			wa, err2 := pe.addrOf(w, depth)
			if err1 == nil && err2 == nil && ra != wa {
				pe.bad = true
			}
		}
	}
	pe.vals[id] = val
	return val, nil
}

func (pe *partialEnv) addrOf(s *symexec.SAP, depth int) (int, error) {
	if s.Addr != symexec.NoAddr {
		return s.Addr, nil
	}
	for _, dep := range symbolic.Syms(s.AddrIndex, nil, nil) {
		if _, err := pe.resolve(dep, depth+1); err != nil {
			return 0, err
		}
	}
	idx, err := symbolic.EvalInt(s.AddrIndex, pe)
	if err != nil {
		return 0, err
	}
	a, ok := pe.s.sys.Layout.Addr(pe.s.sys.An.Prog, s.Var, idx)
	if !ok {
		return 0, fmt.Errorf("solver: out-of-bounds symbolic address")
	}
	return a, nil
}

// checkEagerly evaluates every conjunct whose reads are all decided; it
// reports false when a decided conjunct is violated or an address-equality
// check failed, pruning the branch before further decisions.
func (s *search) checkEagerly() bool {
	pe := &partialEnv{s: s, vals: map[symbolic.SymID]int64{}}
	for _, c := range s.conjAll {
		ok, err := symbolic.EvalBool(c, pe)
		if pe.bad {
			return false
		}
		if err != nil {
			continue // not fully decided yet
		}
		if !ok {
			return false
		}
	}
	return true
}

// addEdge inserts a < b, reporting false on a cycle (b already reaches a).
// Cycle detection is incremental: the order graph keeps a topological
// order, so a rank-consistent edge costs O(1) and only rank inversions
// pay for a search bounded to the affected region (see ordGraph).
func (s *search) addEdge(a, b constraints.SAPRef) bool {
	return s.g.addEdge(a, b)
}

// undoTo truncates the edge trail back to mark n.
func (s *search) undoTo(n int) { s.g.undoTo(n) }

// reaches reports whether to is reachable from from in the order graph.
// The maintained topological order answers most queries in O(1) (a node
// never reaches one ranked at or below it) and rank-prunes the rest.
func (s *search) reaches(from, to constraints.SAPRef) bool {
	return s.g.reaches(from, to)
}

// interrupted polls the search's cancellation sources: the caller's context
// and the wall-clock deadline. It is cheap enough to call on a stride from
// every search hot loop.
func (s *search) interrupted() *Interrupted {
	if s.opts.Progress != nil {
		if s.polls++; s.polls%progressStride == 0 {
			s.opts.Progress(*s.stats)
		}
	}
	if s.opts.Ctx != nil {
		select {
		case <-s.opts.Ctx.Done():
			return &Interrupted{Reason: s.opts.Ctx.Err().Error(), Bound: s.bound}
		default:
		}
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return &Interrupted{Reason: "deadline exceeded", Bound: s.bound}
	}
	return nil
}

// stopped polls interrupted for the walks that cannot return an error,
// leaving the interrupt in pendingIntr.
func (s *search) stopped() bool {
	if ierr := s.interrupted(); ierr != nil {
		s.pendingIntr = ierr
		return true
	}
	return false
}

func (s *search) solveWithBound(bound int) (*Solution, error) {
	s.bound = bound
	if ierr := s.interrupted(); ierr != nil {
		return nil, ierr
	}
	if bound <= genFallbackBound {
		sol, decided := s.tryGenerate(bound, genLimits{
			MaxSchedules: genScheduleBudget,
			MaxCSPSets:   200_000,
			MaxWalkNodes: 5_000_000,
		})
		if s.pendingIntr != nil {
			return nil, s.pendingIntr
		}
		if sol != nil {
			return sol, nil
		}
		if decided {
			if bound == s.stats.Refuted {
				s.stats.Refuted++
			}
			return nil, &Unsat{Reason: fmt.Sprintf("no schedule with %d preemptions (exhaustive)", bound)}
		}
		if s.genCapped != nil && bound < len(s.genCapped) {
			s.genCapped[bound] = true
		}
		// Enumeration overflowed its budget: fall through to the mapping
		// search, which scales to large bounds. In minimal mode the rescue
		// pass may revisit this bound with the escalated budget.
	}
	sol, err := s.decide(0)
	if err != nil {
		return nil, err
	}
	return sol, nil
}

// genLimits bounds one enumeration attempt (see schedule.Options for the
// cap semantics).
type genLimits struct {
	MaxSchedules int
	MaxCSPSets   int
	MaxWalkNodes int
}

// tryGenerate enumerates all candidate schedules with exactly `bound`
// preemptions and validates each. decided=true means the enumeration was
// exhaustive, so a nil solution proves unsatisfiability at this bound.
func (s *search) tryGenerate(bound int, lim genLimits) (sol *Solution, decided bool) {
	gen := schedule.NewGenerator(s.sys, schedule.Options{
		MaxSchedules:     lim.MaxSchedules,
		RespectHardEdges: true,
		MaxCSPSets:       lim.MaxCSPSets,
		MaxWalkNodes:     lim.MaxWalkNodes,
		Stop:             s.stopped,
	})
	res := gen.Generate(bound, func(order []constraints.SAPRef, pre int) bool {
		s.stats.Validations++
		if s.stats.Validations&63 == 0 && s.stopped() {
			return false
		}
		w, err := s.sys.ValidateSchedule(order)
		if err != nil || w.Preemptions > bound {
			return true
		}
		cp := make([]constraints.SAPRef, len(order))
		copy(cp, order)
		sol = &Solution{Order: cp, Witness: w, Preemptions: w.Preemptions}
		return false
	})
	if sol != nil {
		return sol, true
	}
	return nil, !res.Capped
}

// capturePartial snapshots the order graph's current topological order
// as the deepest-prefix partial schedule. ord is a permutation of ranks,
// so inverting it yields a SAP sequence consistent with every edge the
// graph holds right now.
func (s *search) capturePartial(depth int) {
	s.maxDepth = depth
	n := len(s.g.ord)
	if cap(s.stats.Partial) < n {
		s.stats.Partial = make([]constraints.SAPRef, n)
	}
	p := s.stats.Partial[:n]
	for v, rank := range s.g.ord {
		p[rank] = constraints.SAPRef(v)
	}
	s.stats.Partial = p
	s.stats.PartialDepth = depth
}

// decide assigns decision points depth-first.
func (s *search) decide(i int) (*Solution, error) {
	s.stats.Decisions++
	if s.stats.Decisions&255 == 0 {
		if ierr := s.interrupted(); ierr != nil {
			return nil, ierr
		}
	}
	if s.stats.Decisions > maxDecisions {
		return nil, fmt.Errorf("solver: decision budget exceeded (%d)", maxDecisions)
	}
	if s.boundBudget > 0 && s.stats.Decisions-s.boundStart > s.boundBudget {
		return nil, &Unsat{Reason: fmt.Sprintf("bound %d effort budget exhausted", s.bound)}
	}
	if s.opts.CapturePartial && i > s.maxDepth {
		s.capturePartial(i)
	}
	if i == len(s.decisions) {
		return s.complete()
	}
	d := s.decisions[i]
	mark := s.g.mark()
	switch d.kind {
	case decWait:
		wi := s.sys.Waits[d.wait]
		usedSignals := map[constraints.SAPRef]bool{}
		for k := range s.sys.Waits {
			if s.chosenWake[k] >= 0 && k < d.wait {
				cand := s.sys.Waits[k].Cands[s.chosenWake[k]]
				if s.sys.SAP(cand).Kind == symexec.SAPSignal {
					usedSignals[cand] = true
				}
			}
		}
		for ci, cand := range wi.Cands {
			if usedSignals[cand] {
				continue // a plain signal wakes at most one wait
			}
			if s.addEdge(wi.Begin, cand) && s.addEdge(cand, wi.End) {
				s.chosenWake[d.wait] = ci
				if sol, err := s.decide(i + 1); err == nil {
					return sol, nil
				} else if _, ok := err.(*Unsat); !ok {
					return nil, err
				}
			}
			s.undoTo(mark)
			s.stats.Backtracks++
		}
		return nil, &Unsat{Reason: "no wake mapping"}
	case decRead:
		ri := s.sys.Reads[d.read]
		r := ri.Read
		// Dynamic address resolution: with address-forming reads decided
		// first, most "maybe same address" candidates resolve to definite
		// equality or inequality here, enabling exact pruning and interval
		// side-constraints even for symbolic-address programs.
		addrKnown, addrOfRef := s.resolveAddrs(ri)
		firstChoice := -1
		if ri.NoInit {
			// Preprocessing proved a same-address write always precedes the
			// read: the initial value is unobservable.
			firstChoice = 0
		}
		for ci := firstChoice; ci < len(ri.Cands); ci++ {
			if ci >= 0 {
				if known, same := addrMatch(addrKnown, addrOfRef, r, ri.Cands[ci]); known && !same {
					continue // definitely different cells: not a candidate
				}
			}
			// For a write candidate, genuinely-free rival writes default to
			// "before the chosen write"; when the subtree fails we retry
			// with them "after the read" — the two placements that matter
			// in practice without an exponential per-rival split.
			variants := 1
			if ci >= 0 {
				variants = 2
			}
			for variant := 0; variant < variants; variant++ {
				ok := true
				if ci >= 0 {
					w := ri.Cands[ci]
					if !s.addEdge(w, r) {
						ok = false
					}
					if ok {
						ok = s.placeRivals(ri, w, r, variant == 1, addrKnown, addrOfRef)
					}
				} else {
					// Initial value: every same-address write (statically or
					// dynamically resolved) comes after the read — including
					// writes pruned from the candidate set, which still exist
					// in the schedule.
					for _, w2 := range ri.AllRivals() {
						same, _ := symexec.SameCell(s.sys.SAP(r), s.sys.SAP(w2))
						if !same {
							if known, eq := addrMatch(addrKnown, addrOfRef, r, w2); known && eq {
								same = true
							}
						}
						if same {
							if !s.addEdge(r, w2) {
								ok = false
								break
							}
						}
					}
				}
				if ok {
					s.chosenWrite[d.read] = ci
					// Eager value pruning: any path conjunct whose reads
					// are now all mapped must already hold.
					if s.checkEagerly() {
						if sol, err := s.decide(i + 1); err == nil {
							return sol, nil
						} else if _, ok := err.(*Unsat); !ok {
							return nil, err
						}
					}
					s.chosenWrite[d.read] = -2
				}
				s.undoTo(mark)
				s.stats.Backtracks++
			}
		}
		return nil, &Unsat{Reason: "no write mapping"}
	case decLockPair:
		var regions []constraints.Region
		for m, rs := range s.sys.Regions {
			if int(m) == d.mutex {
				regions = rs
			}
		}
		a, b := regions[d.a], regions[d.b]
		// Region a entirely before b, or b entirely before a. Open regions
		// (no unlock) can only come last.
		if a.HasUnlock {
			if s.addEdge(a.Unlock, b.Lock) {
				if sol, err := s.decide(i + 1); err == nil {
					return sol, nil
				} else if _, ok := err.(*Unsat); !ok {
					return nil, err
				}
			}
			s.undoTo(mark)
			s.stats.Backtracks++
		}
		if b.HasUnlock {
			if s.addEdge(b.Unlock, a.Lock) {
				if sol, err := s.decide(i + 1); err == nil {
					return sol, nil
				} else if _, ok := err.(*Unsat); !ok {
					return nil, err
				}
			}
			s.undoTo(mark)
			s.stats.Backtracks++
		}
		return nil, &Unsat{Reason: "lock regions cannot be serialized"}
	}
	return nil, fmt.Errorf("solver: unknown decision kind")
}

// resolveAddrs attempts to concretize the addresses of a read and all its
// candidate writes under the current partial mapping. It returns a map of
// resolved addresses keyed by SAPRef (addrKnown[x] reports resolvability).
func (s *search) resolveAddrs(ri constraints.ReadInfo) (map[constraints.SAPRef]bool, map[constraints.SAPRef]int) {
	known := map[constraints.SAPRef]bool{}
	addr := map[constraints.SAPRef]int{}
	pe := &partialEnv{s: s, vals: map[symbolic.SymID]int64{}}
	resolve := func(ref constraints.SAPRef) {
		sap := s.sys.SAP(ref)
		if sap.Addr != symexec.NoAddr {
			known[ref], addr[ref] = true, sap.Addr
			return
		}
		if a, err := pe.addrOf(sap, 0); err == nil && !pe.bad {
			known[ref], addr[ref] = true, a
		}
	}
	resolve(ri.Read)
	for _, w := range ri.AllRivals() {
		resolve(w)
	}
	return known, addr
}

// addrMatch reports whether both SAPs' addresses are resolved and equal.
func addrMatch(known map[constraints.SAPRef]bool, addr map[constraints.SAPRef]int, a, b constraints.SAPRef) (bothKnown, same bool) {
	if known[a] && known[b] {
		return true, addr[a] == addr[b]
	}
	return false, false
}

// placeRivals commits each same-address rival write (statically definite or
// dynamically resolved) to one side of the (w, r) interval. Rivals with
// only one consistent side are forced; genuinely free rivals take the side
// selected by rivalsAfter.
func (s *search) placeRivals(ri constraints.ReadInfo, w, r constraints.SAPRef, rivalsAfter bool, addrKnown map[constraints.SAPRef]bool, addrOf map[constraints.SAPRef]int) bool {
	var free []constraints.SAPRef
	// The interval constraint ranges over the full rival set: a write
	// pruned from Cands cannot be the mapped write, but it still exists in
	// every schedule and must stay outside the (w, r) interval.
	for _, w2 := range ri.AllRivals() {
		if w2 == w {
			continue
		}
		if same, _ := symexec.SameCell(s.sys.SAP(ri.Read), s.sys.SAP(w2)); !same {
			known, same := addrMatch(addrKnown, addrOf, ri.Read, w2)
			if !known || !same {
				continue // unresolved or different cell: no interval constraint
			}
		}
		beforeOK := !s.reaches(w, w2) // can place w2 < w
		afterOK := !s.reaches(w2, r)  // can place r < w2
		switch {
		case beforeOK && afterOK:
			free = append(free, w2)
		case beforeOK:
			if !s.addEdge(w2, w) {
				return false
			}
		case afterOK:
			if !s.addEdge(r, w2) {
				return false
			}
		default:
			return false
		}
	}
	for _, w2 := range free {
		if rivalsAfter {
			if !s.addEdge(r, w2) && !s.addEdge(w2, w) {
				return false
			}
		} else {
			if !s.addEdge(w2, w) && !s.addEdge(r, w2) {
				return false
			}
		}
	}
	return true
}

// complete is called with all decisions made: evaluate values, check Fpath
// and Fbug, then extract and validate a minimal linear extension.
func (s *search) complete() (*Solution, error) {
	// Resolve every decided read's value. The address-mismatch flag is not
	// consulted here: validation below checks addresses exactly.
	env := &partialEnv{s: s, vals: map[symbolic.SymID]int64{}}
	for i := range s.sys.Reads {
		if s.sys.Reads[i].Free {
			continue // outside the cone: undecided by design, never observed
		}
		if _, err := env.resolve(s.sys.SAP(s.sys.Reads[i].Read).Sym.ID, 0); err != nil {
			return nil, &Unsat{Reason: err.Error()}
		}
	}
	for _, c := range s.sys.Path {
		ok, err := symbolic.EvalBool(c, env)
		if err != nil || !ok {
			return nil, &Unsat{Reason: fmt.Sprintf("path condition %s fails under mapping", c)}
		}
	}
	ok, err := symbolic.EvalBool(s.sys.Bug, env)
	if err != nil || !ok {
		return nil, &Unsat{Reason: "bug predicate fails under mapping"}
	}
	// Extract linear extensions within the preemption bound and validate.
	// The walk polls for interrupts; one it saw ends the search here.
	tries := 0
	var lastErr error
	found := (*Solution)(nil)
	s.extendSchedules(func(order []constraints.SAPRef) bool {
		tries++
		s.stats.Extensions++
		s.stats.Validations++
		w, err := s.sys.ValidateSchedule(order)
		if err != nil {
			lastErr = err
			return tries < extensionRetries
		}
		// The walk bounds switches against the decided graph; the witness
		// count is the replay-level ground truth, so enforce the bound on
		// it too.
		if w.Preemptions > s.bound {
			lastErr = fmt.Errorf("extension needs %d preemptions (> bound %d)", w.Preemptions, s.bound)
			return tries < extensionRetries
		}
		cp := make([]constraints.SAPRef, len(order))
		copy(cp, order)
		found = &Solution{Order: cp, Witness: w, Preemptions: w.Preemptions}
		return false
	})
	if found != nil {
		return found, nil
	}
	if s.pendingIntr != nil {
		return nil, s.pendingIntr
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no linear extension within %d preemptions", s.bound)
	}
	return nil, &Unsat{Reason: lastErr.Error()}
}
