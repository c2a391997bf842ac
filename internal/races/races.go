// Package races is the constraint-based predictive race detector over
// CLAP's symbolic event graph. Given the constraint system of one recorded
// execution (benign or failing), it enumerates conflicting access pairs —
// write/write or write/read on the same location from different threads —
// prunes the pairs the static lockset / happens-before analysis already
// proves safe, and decides each surviving source-site pair by asking
// whether a feasible schedule exists in which the two accesses are
// *adjacent*: no SAP, in particular no synchronization operation, between
// them. Adjacent-in-some-feasible-schedule is the classic predictive race
// criterion — nothing orders the pair, so on real hardware the accesses
// can overlap.
//
// Two engines decide adjacency, cheapest first:
//
//   - recorded-order perturbation: re-validate the recorded interleaving
//     (or a single-move variant of it that drags one access next to the
//     other) with constraints.ValidateSchedule. A success is a confirmed
//     race with a concrete, replay-validated witness schedule.
//   - CNF session fallback: one cnfsolver.Session per recording, re-entered
//     per pair via RetractBlocks → AssumeAdjacent → Solve. Sat confirms
//     (the witness comes out of the theory loop already validated), Unsat
//     refutes — the CNF over-approximates the feasible-schedule space, so
//     an unsatisfiable adjacency query proves the pair can never touch.
//     Budget exhaustion is reported as unknown, never as refuted.
//
// Confirmed races therefore always carry a witness that passes
// ValidateSchedule; refuted verdicts are proofs modulo the recorded paths;
// and the per-reason counters expose how much work each filter saved.
package races

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/minic"
	"repro/internal/staticanalysis"
	"repro/internal/symexec"
	"repro/internal/trace"
)

// NoTime marks a SAP without a recorded timestamp in the times slice
// handed to Analyze (same convention as explain.AlignRecorded).
const NoTime int64 = -1

// Analysis budgets.
const (
	// maxPairsPerSite bounds how many SAP pairs are examined per distinct
	// source-site pair. A site group larger than the budget can still be
	// confirmed, but never refuted.
	maxPairsPerSite = 4
	// solverRounds caps the CNF theory-refinement rounds per adjacency
	// query. Round budgets keep verdicts deterministic, so there is no
	// per-query wall-clock deadline by default.
	solverRounds = 60
	// maxSolverCalls bounds the total CNF queries per recording;
	// exhausted groups report unknown.
	maxSolverCalls = 64
)

// Options tunes the analysis.
type Options struct {
	// NoPerturb disables the recorded-order perturbation fast path,
	// forcing every surviving pair through the CNF session.
	NoPerturb bool
	// Ctx cancels the analysis between pairs and inside CNF queries.
	Ctx context.Context
	// Deadline bounds the whole analysis (0 = none); groups past it
	// report unknown.
	Deadline time.Duration
}

// Status is a site pair's verdict.
type Status uint8

// Verdicts.
const (
	// Confirmed: a feasible schedule runs the accesses with no
	// synchronization between them; the finding carries the validated
	// witness.
	Confirmed Status = iota
	// Refuted: the solver proved every feasible schedule separates every
	// access pair of the site with synchronization — a lockset false
	// positive.
	Refuted
	// Unknown: budgets ran out before a verdict.
	Unknown
	// StaticOnly: the static analysis flags the site pair as a potential
	// race, but the recorded execution contains no conflicting access
	// pair for it (one side never executed, or the concrete indices were
	// disjoint this run), so the predictive pass has nothing to decide.
	StaticOnly
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Confirmed:
		return "confirmed"
	case Refuted:
		return "refuted"
	case StaticOnly:
		return "static"
	}
	return "unknown"
}

// Access identifies one side of a finding: a source site plus the thread
// of the witnessing dynamic access.
type Access struct {
	SAP    constraints.SAPRef
	Thread trace.ThreadID
	Write  bool
	Pos    minic.Pos
}

// Finding is the verdict for one conflicting source-site pair.
type Finding struct {
	// Var is the shared global's name.
	Var string
	// A and B are the two sites, canonically ordered by position. For a
	// confirmed finding they identify the witnessing SAP pair.
	A, B Access
	// Status is the verdict; How names the engine that produced it
	// ("recorded", "perturbed", "solver") or the reason it is unknown.
	Status Status
	How    string
	// Pairs counts the SAP pairs of this site group that survived
	// pruning.
	Pairs int
	// Witness is the validated adjacent schedule (confirmed only). The
	// two racing accesses sit at consecutive positions.
	Witness *constraints.Witness
}

// Counters are the per-reason work counters, mirrored into the obs
// registry by the core glue under the races.* stable names.
type Counters struct {
	// Pairs counts enumerated conflicting SAP pairs.
	Pairs int `json:"pairs"`
	// PrunedStatic counts pairs pruned as statically ordered (happens-
	// before verdicts and hard-edge reachability).
	PrunedStatic int `json:"pruned_static"`
	// PrunedMutex counts pairs pruned by a common must-held mutex.
	PrunedMutex int `json:"pruned_mutex"`
	// Confirmed / Refuted / Unknown / StaticOnly count site verdicts.
	Confirmed  int `json:"confirmed"`
	Refuted    int `json:"refuted"`
	Unknown    int `json:"unknown"`
	StaticOnly int `json:"static_only"`
	// SolverCalls and Sessions count CNF adjacency queries and session
	// constructions; SessionReuse = SolverCalls - Sessions is the number
	// of queries that re-entered an existing session.
	SolverCalls int `json:"solver_calls"`
	Sessions    int `json:"sessions"`
}

// SessionReuse reports how many CNF queries reused an existing session.
func (c Counters) SessionReuse() int {
	if c.SolverCalls == 0 {
		return 0
	}
	return c.SolverCalls - c.Sessions
}

// Report is the full analysis result.
type Report struct {
	// Findings is sorted: confirmed, then refuted, then unknown, each by
	// (variable, positions) — byte-stable for goldens.
	Findings []Finding
	Counters Counters
	// Sys and Times echo the analysis inputs so renderers (schedule
	// diffs, witness listings) can resolve SAPs and recorded order.
	Sys   *constraints.System
	Times []int64
}

// Confirmed returns the confirmed findings (a prefix of Findings).
func (r *Report) Confirmed() []Finding {
	n := 0
	for _, f := range r.Findings {
		if f.Status != Confirmed {
			break
		}
		n++
	}
	return r.Findings[:n]
}

type pair struct{ a, b constraints.SAPRef }

type siteKey struct {
	v    string // global name: the user-facing grouping identity
	a, b site
}

type site struct {
	pos   minic.Pos
	write bool
}

func siteOf(s *symexec.SAP) site {
	return site{pos: s.Pos, write: s.Kind == symexec.SAPWrite}
}

func siteLess(a, b site) bool {
	if a.pos.Line != b.pos.Line {
		return a.pos.Line < b.pos.Line
	}
	if a.pos.Col != b.pos.Col {
		return a.pos.Col < b.pos.Col
	}
	return !a.write && b.write
}

type analyzer struct {
	sys    *constraints.System
	static *staticanalysis.Result
	opts   Options

	recorded    []constraints.SAPRef // validated recorded total order, or nil
	recordedPos []int                // SAPRef → position in recorded
	recordedW   *constraints.Witness
	moveBuf     []constraints.SAPRef
	reach       *constraints.Reach // program order plus hard edges, or nil
	dynSites    map[siteKey]bool   // site pairs with a dynamic group

	sess     *cnfsolver.Session
	sessErr  error
	deadline time.Time

	counters Counters
}

// Analyze runs the predictive race analysis over one recording's
// constraint system. static supplies the first-stage pair filter (nil
// disables it); times maps each SAPRef to its recorded logical timestamp
// (from explain.AlignRecorded; nil or incomplete disables the
// perturbation fast path).
func Analyze(sys *constraints.System, static *staticanalysis.Result, times []int64, opts Options) (*Report, error) {
	if sys == nil {
		return nil, fmt.Errorf("races: nil constraint system")
	}
	a := &analyzer{sys: sys, static: static, opts: opts}
	if opts.Deadline > 0 {
		a.deadline = time.Now().Add(opts.Deadline)
	}
	if !opts.NoPerturb {
		a.buildRecorded(times)
	}
	groups := a.enumerate()
	rep := &Report{Sys: sys, Times: times}
	for _, g := range groups {
		rep.Findings = append(rep.Findings, a.decide(g))
	}
	rep.Findings = append(rep.Findings, a.staticOnly()...)
	sortFindings(rep.Findings)
	for _, f := range rep.Findings {
		switch f.Status {
		case Confirmed:
			a.counters.Confirmed++
		case Refuted:
			a.counters.Refuted++
		case StaticOnly:
			a.counters.StaticOnly++
		default:
			a.counters.Unknown++
		}
	}
	rep.Counters = a.counters
	return rep, nil
}

// buildRecorded reconstructs and validates the recorded total order from
// the alignment times. Any SAP without a timestamp (demoted access,
// never-scheduled thread) disables the fast path: a partial order cannot
// be validated as a schedule.
func (a *analyzer) buildRecorded(times []int64) {
	n := len(a.sys.SAPs)
	if len(times) != n {
		return
	}
	order := make([]constraints.SAPRef, n)
	for i := range order {
		if times[i] == NoTime {
			return
		}
		order[i] = constraints.SAPRef(i)
	}
	sort.Slice(order, func(i, j int) bool {
		ti, tj := times[order[i]], times[order[j]]
		if ti != tj {
			return ti < tj
		}
		return order[i] < order[j]
	})
	w, err := a.sys.ValidateSchedule(order)
	if err != nil {
		return
	}
	pos := make([]int, n)
	for i, r := range order {
		pos[r] = i
	}
	a.recorded, a.recordedPos, a.recordedW = order, pos, w
}

type group struct {
	key   siteKey
	pairs []pair
}

// enumerate walks every conflicting SAP pair, applies the static filters,
// and groups the survivors by source-site pair.
func (a *analyzer) enumerate() []group {
	sys := a.sys
	byVar := map[int][]constraints.SAPRef{}
	for i, s := range sys.SAPs {
		if s.Kind.IsMemory() {
			byVar[int(s.Var)] = append(byVar[int(s.Var)], constraints.SAPRef(i))
		}
	}
	vars := make([]int, 0, len(byVar))
	for v := range byVar {
		vars = append(vars, v)
	}
	sort.Ints(vars)

	// A cyclic graph (impossible for a consistent recording) leaves reach
	// nil, which disables the filter rather than mis-pruning.
	edges := append([][2]constraints.SAPRef(nil), sys.HardEdges...)
	for _, refs := range sys.Threads {
		for k := 0; k+1 < len(refs); k++ {
			edges = append(edges, [2]constraints.SAPRef{refs[k], refs[k+1]})
		}
	}
	a.reach = constraints.NewReach(len(sys.SAPs), edges)
	a.dynSites = map[siteKey]bool{}
	groups := map[siteKey]*group{}
	var order []siteKey
	for _, v := range vars {
		refs := byVar[v]
		name := sys.An.Prog.Globals[v].Name
		for i := 0; i < len(refs); i++ {
			for j := i + 1; j < len(refs); j++ {
				x, y := sys.SAP(refs[i]), sys.SAP(refs[j])
				if x.Thread == y.Thread {
					continue
				}
				if x.Kind != symexec.SAPWrite && y.Kind != symexec.SAPWrite {
					continue
				}
				if _, maybe := symexec.SameCell(x, y); !maybe {
					continue
				}
				a.counters.Pairs++
				if a.pruned(x, y, refs[i], refs[j]) {
					continue
				}
				sx, sy := siteOf(x), siteOf(y)
				p := pair{refs[i], refs[j]}
				if siteLess(sy, sx) {
					sx, sy = sy, sx
					p.a, p.b = p.b, p.a
				}
				key := siteKey{v: name, a: sx, b: sy}
				a.dynSites[key] = true
				g, ok := groups[key]
				if !ok {
					g = &group{key: key}
					groups[key] = g
					order = append(order, key)
				}
				g.pairs = append(g.pairs, p)
			}
		}
	}
	out := make([]group, 0, len(order))
	for _, key := range order {
		g := groups[key]
		a.sortPairs(g.pairs)
		out = append(out, *g)
	}
	return out
}

// pruned applies the cheap first-stage filters, charging the per-reason
// counters. All three are sound: a common must-held lock, a static
// happens-before proof, or a hard-edge order each hold in every feasible
// schedule of the system.
func (a *analyzer) pruned(x, y *symexec.SAP, rx, ry constraints.SAPRef) bool {
	if !x.MustLocks.Inter(y.MustLocks).Empty() {
		a.counters.PrunedMutex++
		return true
	}
	if a.static != nil {
		switch a.static.PairVerdictAt(x.Var, x.Pos, x.Kind == symexec.SAPWrite, y.Pos, y.Kind == symexec.SAPWrite) {
		case staticanalysis.PairLockExcluded:
			a.counters.PrunedMutex++
			return true
		case staticanalysis.PairOrdered:
			a.counters.PrunedStatic++
			return true
		}
	}
	if a.reach != nil && (a.reach.Reaches(rx, ry) || a.reach.Reaches(ry, rx)) {
		// Every hard-edge path between two memory SAPs of different
		// threads crosses a cross-thread edge between two sync SAPs, so
		// an ordered pair always has synchronization between its accesses
		// — in every feasible schedule, not just the recorded one.
		a.counters.PrunedStatic++
		return true
	}
	return false
}

// sortPairs orders a group's pairs by how promising they are for the fast
// path: smallest recorded gap first (an already-adjacent pair confirms
// with zero extra work), then by ref for determinism.
func (a *analyzer) sortPairs(ps []pair) {
	gap := func(p pair) int {
		if a.recordedPos == nil {
			return 0
		}
		d := a.recordedPos[p.a] - a.recordedPos[p.b]
		if d < 0 {
			d = -d
		}
		return d
	}
	sort.Slice(ps, func(i, j int) bool {
		gi, gj := gap(ps[i]), gap(ps[j])
		if gi != gj {
			return gi < gj
		}
		if ps[i].a != ps[j].a {
			return ps[i].a < ps[j].a
		}
		return ps[i].b < ps[j].b
	})
}

func (a *analyzer) interrupted() bool {
	if a.opts.Ctx != nil {
		select {
		case <-a.opts.Ctx.Done():
			return true
		default:
		}
	}
	return !a.deadline.IsZero() && time.Now().After(a.deadline)
}

// decide resolves one site group: perturbation fast path first, then the
// shared CNF session. A site is refuted only when every one of its SAP
// pairs was refuted by the solver; any unresolved pair degrades the
// verdict to unknown.
func (a *analyzer) decide(g group) Finding {
	f := Finding{Var: g.key.v, Pairs: len(g.pairs)}
	f.A, f.B = a.accessPair(g.pairs[0])

	budget := min(maxPairsPerSite, len(g.pairs))
	var solverQueue []pair
	for _, p := range g.pairs[:budget] {
		if a.interrupted() {
			f.Status, f.How = Unknown, "deadline"
			return f
		}
		if w, how := a.fastWitness(p); w != nil {
			f.Status, f.How, f.Witness = Confirmed, how, w
			f.A, f.B = a.accessPair(p)
			return f
		}
		solverQueue = append(solverQueue, p)
	}

	refuted := 0
	for _, p := range solverQueue {
		if a.interrupted() {
			f.Status, f.How = Unknown, "deadline"
			return f
		}
		if a.counters.SolverCalls >= maxSolverCalls {
			f.Status, f.How = Unknown, "solver-budget"
			return f
		}
		w, verdict := a.solvePair(p)
		switch verdict {
		case Confirmed:
			f.Status, f.How, f.Witness = Confirmed, "solver", w
			f.A, f.B = a.accessPair(p)
			return f
		case Refuted:
			refuted++
		default:
			f.Status, f.How = Unknown, a.solveUnknownReason()
			return f
		}
	}
	if refuted == len(g.pairs) {
		f.Status, f.How = Refuted, "solver"
		return f
	}
	// Some pairs were beyond the per-site budget: refuting a subset
	// proves nothing about the rest.
	f.Status, f.How = Unknown, "pair-budget"
	return f
}

// fastWitness tries to confirm a pair from the recorded order: as-is when
// no synchronization falls between the accesses, else by perturbing the
// recorded schedule — a single access moved next to its partner, or the
// whole window between them split around the pair by hard-order
// dependence — and re-validating. All candidates preserve the recorded
// orientation; the solver covers reversals.
func (a *analyzer) fastWitness(p pair) (*constraints.Witness, string) {
	if a.recorded == nil {
		return nil, ""
	}
	ra, rb := p.a, p.b
	i, j := a.recordedPos[ra], a.recordedPos[rb]
	if i > j {
		i, j = j, i
		ra, rb = rb, ra
	}
	if a.syncFree(i, j) {
		return a.recordedW, "recorded"
	}
	// Move the later access to just after the earlier one…
	if w := a.validateMove(j, i+1); w != nil {
		return w, "perturbed"
	}
	// …or the earlier access to just before the later one.
	if w := a.validateMove(i, j-1); w != nil {
		return w, "perturbed"
	}
	// …or evacuate the whole window: events the pair's first access
	// hard-orders go after the pair, everything else before it.
	if w := a.blockMove(ra, rb, i, j); w != nil {
		return w, "perturbed"
	}
	return nil, ""
}

// syncFree reports whether no synchronization SAP sits strictly between
// recorded positions i and j. Intervening memory accesses are fine — the
// pair is still happens-before-unordered.
func (a *analyzer) syncFree(i, j int) bool {
	for k := i + 1; k < j; k++ {
		if a.sys.SAP(a.recorded[k]).Kind.IsSync() {
			return false
		}
	}
	return true
}

// blockMove builds the window-split candidate: recorded order with every
// event between the pair moved out — events hard-ordered after ra go
// right after rb, the rest right before ra. Hard edges cannot break: a
// window event hard-ordered both after ra and before rb would make the
// pair itself hard-ordered, which pruning already excluded.
func (a *analyzer) blockMove(ra, rb constraints.SAPRef, i, j int) *constraints.Witness {
	if a.reach == nil {
		return nil
	}
	n := len(a.recorded)
	if cap(a.moveBuf) < n {
		a.moveBuf = make([]constraints.SAPRef, n)
	}
	buf := a.moveBuf[:0]
	buf = append(buf, a.recorded[:i]...)
	for k := i + 1; k < j; k++ {
		if !a.reach.Reaches(ra, a.recorded[k]) {
			buf = append(buf, a.recorded[k])
		}
	}
	buf = append(buf, ra, rb)
	for k := i + 1; k < j; k++ {
		if a.reach.Reaches(ra, a.recorded[k]) {
			buf = append(buf, a.recorded[k])
		}
	}
	buf = append(buf, a.recorded[j+1:]...)
	w, err := a.sys.ValidateSchedule(buf)
	if err != nil {
		return nil
	}
	return w
}

// validateMove re-validates the recorded order with the element at
// position from moved to position to (indices in the resulting slice).
func (a *analyzer) validateMove(from, to int) *constraints.Witness {
	n := len(a.recorded)
	if cap(a.moveBuf) < n {
		a.moveBuf = make([]constraints.SAPRef, n)
	}
	buf := a.moveBuf[:0]
	moved := a.recorded[from]
	for i, r := range a.recorded {
		if i != from {
			buf = append(buf, r)
		}
	}
	buf = append(buf, 0)
	copy(buf[to+1:], buf[to:n-1])
	buf[to] = moved
	w, err := a.sys.ValidateSchedule(buf)
	if err != nil {
		return nil
	}
	return w
}

// solvePair runs one adjacency query on the shared CNF session.
func (a *analyzer) solvePair(p pair) (*constraints.Witness, Status) {
	if a.sess == nil && a.sessErr == nil {
		opts := cnfsolver.Options{
			MaxTheoryRounds: solverRounds,
			Ctx:             a.opts.Ctx,
		}
		if !a.deadline.IsZero() {
			opts.Deadline = time.Until(a.deadline)
			if opts.Deadline <= 0 {
				opts.Deadline = time.Nanosecond
			}
		}
		sess, err := cnfsolver.NewSession(a.sys, opts)
		if err != nil {
			a.sessErr = err
		} else {
			a.sess = sess
			a.counters.Sessions++
		}
	}
	if a.sess == nil {
		return nil, Unknown
	}
	// One session, many pairs: retire the previous pair's adjacency group
	// (and any blocking clauses), arm this pair's, and re-enter. Learnt
	// clauses and theory lemmas persist — they are adjacency-independent
	// facts about the system.
	a.sess.RetractBlocks()
	a.sess.AssumeAdjacent(p.a, p.b)
	a.counters.SolverCalls++
	sol, _, err := a.sess.Solve()
	if err == nil {
		return sol.Witness, Confirmed
	}
	var us *cnfsolver.Unsat
	if errors.As(err, &us) {
		return nil, Refuted
	}
	return nil, Unknown // interrupted or round budget: the session stays usable
}

func (a *analyzer) solveUnknownReason() string {
	if a.sessErr != nil {
		return "solver-unavailable"
	}
	return "solver-rounds"
}

func (a *analyzer) accessPair(p pair) (Access, Access) {
	mk := func(r constraints.SAPRef) Access {
		s := a.sys.SAP(r)
		return Access{SAP: r, Thread: s.Thread, Write: s.Kind == symexec.SAPWrite, Pos: s.Pos}
	}
	return mk(p.a), mk(p.b)
}

// staticOnly surfaces the static analysis races whose site pair never
// formed a dynamic group: the recorded execution ran at most one side of
// the pair (or touched disjoint concrete indices), so the predictive pass
// has no occurrence to decide. They are reported distinctly — a potential
// race this recording could not witness, not a confirmed one.
func (a *analyzer) staticOnly() []Finding {
	if a.static == nil {
		return nil
	}
	var out []Finding
	seen := map[siteKey]bool{}
	for _, rc := range a.static.Races {
		sa := site{pos: rc.A.Pos, write: rc.A.Write}
		sb := site{pos: rc.B.Pos, write: rc.B.Write}
		if siteLess(sb, sa) {
			sa, sb = sb, sa
		}
		key := siteKey{v: a.sys.An.Prog.Globals[rc.Global].Name, a: sa, b: sb}
		if a.dynSites[key] || seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Finding{
			Var:    key.v,
			A:      Access{SAP: -1, Thread: -1, Write: sa.write, Pos: sa.pos},
			B:      Access{SAP: -1, Thread: -1, Write: sb.write, Pos: sb.pos},
			Status: StaticOnly,
			How:    "not-recorded",
		})
	}
	return out
}

func statusRank(s Status) int {
	switch s {
	case Confirmed:
		return 0
	case StaticOnly:
		return 1
	case Refuted:
		return 2
	}
	return 3
}

func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if statusRank(a.Status) != statusRank(b.Status) {
			return statusRank(a.Status) < statusRank(b.Status)
		}
		if a.Var != b.Var {
			return a.Var < b.Var
		}
		if a.A.Pos != b.A.Pos {
			return posLess(a.A.Pos, b.A.Pos)
		}
		return posLess(a.B.Pos, b.B.Pos)
	})
}

func posLess(a, b minic.Pos) bool {
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}
