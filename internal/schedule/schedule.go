// Package schedule implements CLAP's preemption-bounded candidate-schedule
// generation (§4.3 of the paper).
//
// A candidate schedule is a total order of all SAPs that respects the
// memory-order constraints Fmo (and, optionally, the other hard order
// edges like fork<start). Candidates are then validated against the full
// constraint system — serially by Enumerate, the product path's head
// start, and by internal/parsolve in parallel, which is the paper's
// parallel constraint solving algorithm.
//
// Generation is guided by context-switch-point (CSP) sets. A CSP is a
// triple (t1, k, t2): thread t1 is preempted by thread t2 immediately
// before t1's k-th SAP. Enumerating CSP sets of increasing size c and
// generating the schedules consistent with each set explores schedules in
// order of preemption count without duplicates — preemptive switches are
// exactly the CSPs, and non-preemptive switches (the current thread ran
// out of runnable SAPs) are branched exhaustively.
//
// For SC each thread's SAPs form a stack (program order); for TSO/PSO they
// form the per-thread order DAG induced by the relaxed Fmo edges — the
// role the paper's SAP-trees play — and any antichain of ready nodes may
// be scheduled next.
package schedule

import (
	"fmt"

	"repro/internal/constraints"
	"repro/internal/trace"
)

// CSP is one context-switch point: thread T1 is preempted by T2 right
// before T1's K-th SAP (K indexes the thread's program-order SAP list).
type CSP struct {
	T1 trace.ThreadID
	K  int
	T2 trace.ThreadID
}

// String renders the CSP.
func (c CSP) String() string { return fmt.Sprintf("(t%d,%d,t%d)", c.T1, c.K, c.T2) }

// Options tunes generation.
type Options struct {
	// MaxSchedules caps how many schedules a single Generate call yields
	// (0 means unlimited). When the cap fires the generator reports
	// Capped=true — never silently.
	MaxSchedules int
	// RespectHardEdges makes generation honor every hard order edge (Fmo
	// plus fork/start/exit/join), pruning candidates that could never
	// validate. Disable to reproduce the paper's raw generate counts where
	// only the per-thread memory order guides generation.
	RespectHardEdges bool
	// MaxCSPSets caps how many context-switch-point sets a bounded
	// generation expands (0 = unlimited). Set enumeration grows
	// combinatorially with the bound; hitting the cap reports Capped.
	MaxCSPSets int
	// MaxWalkNodes caps the total walk nodes across the generation
	// (0 = unlimited); a hit reports Capped.
	MaxWalkNodes int
	// Stop, when set, is polled every PollStride walk nodes; returning
	// true ends the generation, which then reports Capped. It is how a
	// deadline-governed caller keeps one long walk from outliving its
	// budget.
	Stop func() bool
}

// PollStride is how many walk nodes pass between polls of Options.Stop.
const PollStride = 1024

// Generator produces candidate schedules for a constraint system. A
// Generator reuses its walk scratch across CSP sets and Generate calls, so
// it is NOT safe for concurrent Generate calls; create one per goroutine
// (the parallel backend runs one generator feeding a validator pool).
type Generator struct {
	sys  *constraints.System
	opts Options

	// perThread is each thread's SAPs in program order.
	perThread [][]constraints.SAPRef
	// intraPreds[r] lists r's order predecessors within its own thread
	// (the per-thread DAG); crossPreds[r] lists predecessors in other
	// threads (only used with RespectHardEdges).
	intraPreds [][]constraints.SAPRef
	crossPreds [][]constraints.SAPRef

	// Walk scratch, reused across CSP sets: a bounded generation expands
	// thousands of sets and allocating per set dominated the generator's
	// profile.
	allCSPs   []CSP
	cspsBuilt bool
	st        genState
	// gate holds a lock acquisition or an unsignaled wake back, so a
	// blocked thread does not look ready. It is the gate the validator's
	// preemption count uses (constraints.SyncGate), and the two must
	// agree: the walk charges a switch as a preemption exactly when the
	// switched-away thread was ready, and the preemption-bounded sweep
	// finds a schedule at its true bound only if that charge matches the
	// witness's count.
	gate  *constraints.SyncGate
	used  []bool
	cspAt map[[2]int]trace.ThreadID
	// readyBufs are per-depth ready-set buffers for the relaxed walk: slot
	// 2d holds the depth-d ready set being iterated, slot 2d+1 the
	// transient probes of other threads at depth d.
	readyBufs [][]constraints.SAPRef
	// halted is set once the current generation hit MaxWalkNodes or Stop.
	halted bool
}

// Result is the outcome of one generation run.
type Result struct {
	Schedules [][]constraints.SAPRef
	// Generated counts schedules yielded (== len(Schedules) unless a Sink
	// consumed them streaming).
	Generated int
	// Capped reports whether a cap (MaxSchedules, MaxCSPSets,
	// MaxWalkNodes) or Stop ended enumeration early: the run was not
	// exhaustive.
	Capped bool
	// CSPSets counts how many context-switch-point sets were expanded.
	CSPSets int
}

// NewGenerator prepares generation for sys.
func NewGenerator(sys *constraints.System, opts Options) *Generator {
	g := &Generator{sys: sys, opts: opts}
	n := len(sys.SAPs)
	g.intraPreds = make([][]constraints.SAPRef, n)
	g.crossPreds = make([][]constraints.SAPRef, n)
	g.perThread = sys.Threads
	for _, e := range sys.HardEdges {
		a, b := e[0], e[1]
		if sys.SAPs[a].Thread == sys.SAPs[b].Thread {
			g.intraPreds[b] = append(g.intraPreds[b], a)
		} else {
			g.crossPreds[b] = append(g.crossPreds[b], a)
		}
	}
	g.gate = sys.NewSyncGate()
	g.cspAt = map[[2]int]trace.ThreadID{}
	return g
}

// halt reports whether the walk must end, after nodes walk nodes: the
// node cap is exceeded or Stop, polled every PollStride nodes, fired.
func (g *Generator) halt(nodes int) bool {
	if (g.opts.MaxWalkNodes > 0 && nodes > g.opts.MaxWalkNodes) ||
		(g.opts.Stop != nil && nodes%PollStride == 0 && g.opts.Stop()) {
		g.halted = true
	}
	return g.halted
}

// Sink consumes schedules as they are generated; returning false stops
// enumeration (e.g. when a parallel validator already found a solution).
type Sink func(order []constraints.SAPRef, preemptions int) bool

// GenerateWithBound enumerates all schedules with exactly the CSP sets of
// size c, streaming them into sink. It returns the generation statistics.
func (g *Generator) GenerateWithBound(c int, sink Sink) Result {
	res := Result{}
	stop := false
	emit := func(order []constraints.SAPRef, pre int) {
		if stop {
			return
		}
		res.Generated++
		if sink != nil {
			if !sink(order, pre) {
				stop = true
				return
			}
		} else {
			cp := make([]constraints.SAPRef, len(order))
			copy(cp, order)
			res.Schedules = append(res.Schedules, cp)
		}
		if g.opts.MaxSchedules > 0 && res.Generated >= g.opts.MaxSchedules {
			res.Capped = true
			stop = true
		}
	}
	nodes := 0
	g.halted = false
	g.enumCSPSets(c, func(set []CSP) {
		if stop {
			return
		}
		if g.opts.MaxCSPSets > 0 && res.CSPSets >= g.opts.MaxCSPSets {
			res.Capped = true
			stop = true
			return
		}
		res.CSPSets++
		g.generateForSet(set, emit, &stop, &nodes)
		if g.halted {
			res.Capped = true
			stop = true
		}
	})
	return res
}

// enumCSPSets enumerates all CSP sets of size c. The CSP space is
// (threads × SAP positions × other threads); sets are built in
// lexicographically increasing order to avoid duplicates. The set passed
// to f is a shared buffer valid only for the duration of the call.
func (g *Generator) enumCSPSets(c int, f func(set []CSP)) {
	if !g.cspsBuilt {
		g.cspsBuilt = true
		for t1, refs := range g.perThread {
			for k := 1; k < len(refs); k++ {
				// Preempting before the k-th SAP (k=0 is the thread's first
				// SAP, where a "switch" is not a preemption of anything).
				for t2 := range g.perThread {
					if t1 == t2 {
						continue
					}
					g.allCSPs = append(g.allCSPs, CSP{T1: trace.ThreadID(t1), K: k, T2: trace.ThreadID(t2)})
				}
			}
		}
	}
	all := g.allCSPs
	set := make([]CSP, 0, c)
	var rec func(start int)
	rec = func(start int) {
		if len(set) == c {
			f(set)
			return
		}
		for i := start; i < len(all); i++ {
			set = append(set, all[i])
			rec(i + 1)
			set = set[:len(set)-1]
		}
	}
	rec(0)
}

// Generate enumerates candidate schedules whose preemption count is
// exactly c: the stack-based walk for SC systems, the DAG-based walk for
// TSO/PSO systems. Enumerating c = 0,1,2,… visits every candidate exactly
// once, in order of preemption count — the paper's preemption-bounded
// generation.
func (g *Generator) Generate(c int, sink Sink) Result {
	if g.relaxed() {
		return g.GenerateRelaxed(c, sink)
	}
	return g.GenerateWithBound(c, sink)
}

// relaxed reports whether any thread's intra-thread order is not a total
// chain (i.e. the system was built for TSO/PSO).
func (g *Generator) relaxed() bool {
	for _, refs := range g.perThread {
		for i, r := range refs {
			if i == 0 {
				continue
			}
			chained := false
			for _, p := range g.intraPreds[r] {
				if p == refs[i-1] {
					chained = true
					break
				}
			}
			if !chained {
				return true
			}
		}
	}
	return false
}

// genState is the mutable state of one schedule-generation walk.
type genState struct {
	next      []int // per-thread next SAP index (program order position)
	scheduled []bool
	order     []constraints.SAPRef
	pre       int
}

// reset prepares the state for a system of n SAPs across nt threads.
func (st *genState) reset(nt, n, total int) {
	if cap(st.next) < nt {
		st.next = make([]int, nt)
	}
	st.next = st.next[:nt]
	for i := range st.next {
		st.next[i] = 0
	}
	if cap(st.scheduled) < n {
		st.scheduled = make([]bool, n)
	}
	st.scheduled = st.scheduled[:n]
	for i := range st.scheduled {
		st.scheduled[i] = false
	}
	if cap(st.order) < total {
		st.order = make([]constraints.SAPRef, 0, total)
	}
	st.order = st.order[:0]
	st.pre = 0
}

// generateForSet produces every schedule consistent with the CSP set. The
// walk state lives on the Generator and is reset here, not reallocated:
// the gate is emptied, and the dense slices are cleared in place.
func (g *Generator) generateForSet(set []CSP, emit func([]constraints.SAPRef, int), stop *bool, nodes *int) {
	total := 0
	for _, refs := range g.perThread {
		total += len(refs)
	}
	st := &g.st
	st.reset(len(g.perThread), len(g.sys.SAPs), total)
	gate := g.gate
	gate.Reset()
	// cspAt[t][k] = preempting thread, from the set.
	cspAt := g.cspAt
	clear(cspAt)
	for _, c := range set {
		cspAt[[2]int{int(c.T1), c.K}] = c.T2
	}
	if cap(g.used) < len(set) {
		g.used = make([]bool, len(set))
	}
	used := g.used[:len(set)]
	for i := range used {
		used[i] = false
	}
	usedCount := 0
	lastThread := -1 // thread of the most recently emitted SAP
	var run func(cur int)
	// ready reports whether thread t's next SAP can be scheduled now.
	ready := func(t int) bool {
		k := st.next[t]
		if k >= len(g.perThread[t]) {
			return false
		}
		r := g.perThread[t][k]
		for _, p := range g.intraPreds[r] {
			if !st.scheduled[p] {
				return false
			}
		}
		if g.opts.RespectHardEdges {
			for _, p := range g.crossPreds[r] {
				if !st.scheduled[p] {
					return false
				}
			}
		}
		return gate.Enabled(r)
	}
	run = func(cur int) {
		if *stop {
			return
		}
		*nodes++
		if g.halt(*nodes) {
			*stop = true
			return
		}
		if len(st.order) == total {
			// Emit only when every CSP in the set actually fired, so a
			// schedule is produced exactly once — under the set equal to
			// its true preemption points.
			if usedCount == len(set) {
				emit(st.order, st.pre)
			}
			return
		}
		// Preemption check: does the set demand a switch before cur's next
		// SAP? Every unused CSP matching (cur, next[cur]) is a separate
		// branch (two CSPs at the same point chain in either order). A CSP
		// is a *genuine* preemption only when the thread was actually
		// running (it emitted the previous SAP), could continue, and the
		// preempting thread can run — otherwise the same schedule would
		// also arise from forced switches and be generated twice.
		if lastThread == cur && ready(cur) && st.next[cur] < len(g.perThread[cur]) {
			matched := false
			for i, c := range set {
				if !used[i] && int(c.T1) == cur && c.K == st.next[cur] {
					matched = true
					if !ready(int(c.T2)) {
						continue // the set is infeasible along this branch
					}
					used[i] = true
					usedCount++
					st.pre++
					run(int(c.T2))
					st.pre--
					usedCount--
					used[i] = false
					if *stop {
						return
					}
				}
			}
			if matched {
				return
			}
		}
		if ready(cur) {
			// Take the current thread's next SAP and continue.
			r := g.perThread[cur][st.next[cur]]
			st.next[cur]++
			st.scheduled[r] = true
			st.order = append(st.order, r)
			gate.Apply(r)
			prevLast := lastThread
			lastThread = cur
			run(cur)
			lastThread = prevLast
			gate.Undo(r)
			st.order = st.order[:len(st.order)-1]
			st.scheduled[r] = false
			st.next[cur]--
			return
		}
		// Non-preemptive switch: the current thread is done or blocked.
		// Branch over every other ready thread.
		any := false
		for t := range g.perThread {
			if t != cur && ready(t) {
				any = true
				run(t)
				if *stop {
					return
				}
			}
		}
		if !any {
			// No thread can proceed: the walk is stuck (the CSP set or the
			// blocked shape is infeasible); abandon this branch.
			return
		}
	}
	// The schedule starts with whichever thread has a ready first SAP —
	// normally the main thread (thread 0 owns the first Start).
	for t := range g.perThread {
		if ready(t) {
			run(t)
			if *stop {
				return
			}
		}
	}
}

// Note on TSO/PSO: the per-thread DAG is encoded in intraPreds, built from
// the model-specific Fmo edges of the constraint system, so the same walk
// handles all three models — the SC "stack" is just the chain DAG. However,
// under TSO/PSO a thread's ready set can contain several SAPs (e.g. a
// delayed write and the next read). The walk above always takes the next
// SAP in program order when ready; to also explore issuing *later* SAPs
// first (a buffered write overtaken by a read), the generator relies on
// the position permutation below.

// GenerateRelaxed enumerates, for TSO/PSO systems, schedules where each
// thread's SAPs may leave program order as far as the per-thread DAG
// allows. It wraps GenerateWithBound by re-linearizing each thread's
// ready set; the extra nondeterminism is explored by branching on which
// ready intra-thread SAP to issue.
func (g *Generator) GenerateRelaxed(c int, sink Sink) Result {
	res := Result{}
	stop := false
	emit := func(order []constraints.SAPRef, pre int) {
		if stop {
			return
		}
		res.Generated++
		if sink != nil {
			if !sink(order, pre) {
				stop = true
				return
			}
		} else {
			cp := make([]constraints.SAPRef, len(order))
			copy(cp, order)
			res.Schedules = append(res.Schedules, cp)
		}
		if g.opts.MaxSchedules > 0 && res.Generated >= g.opts.MaxSchedules {
			res.Capped = true
			stop = true
		}
	}
	total := 0
	for _, refs := range g.perThread {
		total += len(refs)
	}
	st := &g.st
	st.reset(len(g.perThread), len(g.sys.SAPs), total)
	scheduled := st.scheduled
	order := st.order
	gate := g.gate
	gate.Reset()
	// readyInto computes thread t's ready set into the per-depth scratch
	// slot, so the walk allocates nothing per node. The slot being iterated
	// at depth d is 2d; probes of other threads use 2d+1; deeper recursion
	// only touches slots ≥ 2(d+1).
	readyInto := func(t, slot int) []constraints.SAPRef {
		for len(g.readyBufs) <= slot {
			g.readyBufs = append(g.readyBufs, nil)
		}
		out := g.readyBufs[slot][:0]
		for _, r := range g.perThread[t] {
			if scheduled[r] {
				continue
			}
			ok := true
			for _, p := range g.intraPreds[r] {
				if !scheduled[p] {
					ok = false
					break
				}
			}
			if ok && g.opts.RespectHardEdges {
				for _, p := range g.crossPreds[r] {
					if !scheduled[p] {
						ok = false
						break
					}
				}
			}
			if ok && gate.Enabled(r) {
				out = append(out, r)
			}
		}
		g.readyBufs[slot] = out
		return out
	}
	nodes := 0
	g.halted = false
	var walk func(cur, switches, depth int, justSwitched bool)
	walk = func(cur, switches, depth int, justSwitched bool) {
		if stop {
			return
		}
		nodes++
		if g.halt(nodes) {
			res.Capped = true
			stop = true
			return
		}
		if len(order) == total {
			// Emit at exactly the requested preemption count so that
			// sweeping c = 0,1,2,… yields each schedule once.
			if switches == c {
				emit(order, switches)
			}
			return
		}
		ready := readyInto(cur, 2*depth)
		if len(ready) > 0 {
			// Stay on the current thread: branch over its ready SAPs.
			for _, r := range ready {
				scheduled[r] = true
				order = append(order, r)
				gate.Apply(r)
				walk(cur, switches, depth+1, false)
				gate.Undo(r)
				order = order[:len(order)-1]
				scheduled[r] = false
				if stop {
					return
				}
			}
		}
		// Switch (costs one preemption if the current thread still has
		// ready work; otherwise it is forced). A switch must be followed
		// by progress on the target before switching again, or identical
		// schedules would be reached through different switch chains.
		if justSwitched {
			return
		}
		if switches >= c && len(ready) > 0 {
			return
		}
		for t := range g.perThread {
			if t == cur {
				continue
			}
			if len(readyInto(t, 2*depth+1)) == 0 {
				continue
			}
			cost := 0
			if len(ready) > 0 {
				cost = 1
			}
			if switches+cost > c {
				continue
			}
			walk(t, switches+cost, depth+1, true)
			if stop {
				return
			}
		}
	}
	for t := range g.perThread {
		if len(readyInto(t, 0)) > 0 {
			walk(t, 0, 0, true)
			if stop {
				break
			}
		}
	}
	return res
}
