package constraints

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/symbolic"
	"repro/internal/symexec"
	"repro/internal/trace"
)

// Witness is a validated model of the constraint system: the schedule
// together with the concrete value of every read and the write (or initial
// value) it maps to.
type Witness struct {
	// Order is the validated schedule.
	Order []SAPRef
	// Env binds every read symbol to its concrete value.
	Env symbolic.MapEnv
	// MappedWrite maps each read SAPRef to the write SAPRef it reads from,
	// or -1 when it reads the initial value.
	MappedWrite map[SAPRef]SAPRef
	// Switches is the number of context switches in the schedule (counting
	// every change of running thread).
	Switches int
	// Preemptions is the number of preemptive switches: switches not
	// forced by a must-interleave operation (§4.2).
	Preemptions int
}

// ValidationError explains why a candidate schedule is not a model.
type ValidationError struct {
	At int // schedule position, -1 when global
	// FailedExpr is set when a path condition or the bug predicate
	// evaluated to false: the violated expression. Solvers use it to
	// derive conflict clauses over just the involved reads.
	FailedExpr symbolic.Expr
	// format and args render the reason. Solvers reject many candidate
	// schedules and never read the text, so it is formatted only when
	// Error is called; args hold only values that do not change after
	// the rejection.
	format string
	args   []any
}

// Error implements error.
func (e *ValidationError) Error() string {
	reason := fmt.Sprintf(e.format, e.args...)
	if e.At >= 0 {
		return fmt.Sprintf("constraints: invalid schedule at position %d: %s", e.At, reason)
	}
	return "constraints: invalid schedule: " + reason
}

func vErr(at int, format string, args ...any) *ValidationError {
	return &ValidationError{At: at, format: format, args: args}
}

// ValidateSchedule checks a candidate total order of all SAPs against every
// constraint family and, when valid, returns the witness with concrete read
// values. The check is a single forward pass: O(n) simulation of memory,
// locks and condition variables, plus evaluation of Fpath and Fbug. The
// working state lives in a pooled scratch and the Witness maps are only
// materialized on acceptance, so the (overwhelmingly common) rejection path
// allocates only the error and its arguments: the text is formatted when
// Error is called, which solvers rejecting candidates never do.
func (sys *System) ValidateSchedule(order []SAPRef) (*Witness, error) {
	n := len(sys.SAPs)
	if len(order) != n {
		return nil, vErr(-1, "schedule has %d entries, system has %d SAPs", len(order), n)
	}
	v := sys.getValidator()
	defer sys.putValidator(v)
	v.resetForValidate(sys, n)
	for i, r := range order {
		if r < 0 || int(r) >= n {
			return nil, vErr(i, "SAP ref %d out of range", r)
		}
		if v.pos[r] != -1 {
			return nil, vErr(i, "SAP %s appears twice", sys.SAPs[r])
		}
		v.pos[r] = i
	}

	// Hard order edges.
	for _, e := range sys.HardEdges {
		if v.pos[e[0]] >= v.pos[e[1]] {
			return nil, vErr(v.pos[e[1]], "order edge violated: %s must precede %s", sys.SAPs[e[0]], sys.SAPs[e[1]])
		}
	}

	// Forward simulation: memory, locks, condition variables.
	for i, r := range order {
		s := sys.SAPs[r]
		switch s.Kind {
		case symexec.SAPRead:
			a, err := sys.addrOfAt(v, s, i)
			if err != nil {
				return nil, err
			}
			v.env.bind(s.Sym.ID, v.mem[a])
			v.mapped[r] = v.lastWriter[a]
		case symexec.SAPWrite:
			a, err := sys.addrOfAt(v, s, i)
			if err != nil {
				return nil, err
			}
			val, err := symbolic.EvalInt(s.Val, &v.env)
			if err != nil {
				return nil, vErr(i, "value of %s: %v", s, err)
			}
			v.mem[a] = val
			v.lastWriter[a] = r
		case symexec.SAPLock, symexec.SAPWaitEnd:
			st := v.locks[s.Mutex]
			if st.held {
				return nil, vErr(i, "%s acquires mutex m%d held by t%d", s, s.Mutex, st.owner)
			}
			v.locks[s.Mutex] = lockOwner{held: true, owner: s.Thread}
			if s.Kind == symexec.SAPWaitEnd {
				// A wake needs an eligible signal: one that happened after
				// this wait began. Signals are consumed; broadcasts serve
				// any number of waits pending at broadcast time.
				began, ok := findBegin(sys, v.waitBeganAt, r)
				if !ok {
					return nil, vErr(i, "%s has no recorded begin", s)
				}
				if !consumeSignal(v.signalsAt, v.broadcastsAt, s.Cond, began) {
					return nil, vErr(i, "%s has no eligible signal", s)
				}
			}
		case symexec.SAPUnlock, symexec.SAPWaitBegin:
			st := v.locks[s.Mutex]
			if !st.held || st.owner != s.Thread {
				return nil, vErr(i, "%s releases mutex m%d not held by it", s, s.Mutex)
			}
			v.locks[s.Mutex] = lockOwner{}
			if s.Kind == symexec.SAPWaitBegin {
				v.waitBeganAt[r] = i
			}
		case symexec.SAPSignal:
			v.signalsAt[s.Cond] = append(v.signalsAt[s.Cond], i)
		case symexec.SAPBroadcast:
			v.broadcastsAt[s.Cond] = append(v.broadcastsAt[s.Cond], i)
		}
	}

	// Fpath and Fbug under the simulated values.
	for _, c := range sys.Path {
		ok, err := symbolic.EvalBool(c, &v.env)
		if err != nil {
			return nil, vErr(-1, "path condition %s: %v", c, err)
		}
		if !ok {
			e := vErr(-1, "path condition %s is false", c)
			e.FailedExpr = c
			return nil, e
		}
	}
	ok, err := symbolic.EvalBool(sys.Bug, &v.env)
	if err != nil {
		return nil, vErr(-1, "bug predicate %s: %v", sys.Bug, err)
	}
	if !ok {
		e := vErr(-1, "bug predicate %s is false (failure would not manifest)", sys.Bug)
		e.FailedExpr = sys.Bug
		return nil, e
	}

	// Accepted: materialize the witness from the scratch state.
	w := &Witness{
		Order:       append([]SAPRef(nil), order...),
		Env:         make(symbolic.MapEnv, len(sys.Reads)),
		MappedWrite: make(map[SAPRef]SAPRef, len(sys.Reads)),
	}
	for _, r := range order {
		s := sys.SAPs[r]
		if s.Kind != symexec.SAPRead {
			continue
		}
		if val, bound := v.env.Value(s.Sym.ID); bound {
			w.Env[s.Sym.ID] = val
		}
		w.MappedWrite[r] = v.mapped[r]
	}
	w.Switches, w.Preemptions = sys.countSwitches(v, order)
	return w, nil
}

// addrOfAt resolves a SAP's flat address under the current environment.
func (sys *System) addrOfAt(v *validator, s *symexec.SAP, at int) (int, error) {
	if s.Addr != symexec.NoAddr {
		return s.Addr, nil
	}
	idx, err := symbolic.EvalInt(s.AddrIndex, &v.env)
	if err != nil {
		return 0, vErr(at, "address of %s: %v", s, err)
	}
	a, ok := sys.Layout.Addr(sys.An.Prog, s.Var, idx)
	if !ok {
		return 0, vErr(at, "address of %s out of bounds (index %d)", s, idx)
	}
	return a, nil
}

// findBegin locates the begin position of a wait-end's matching begin.
func findBegin(sys *System, beganAt map[SAPRef]int, end SAPRef) (int, bool) {
	s := sys.SAPs[end]
	// The matching begin is the same thread's most recent WaitBegin on the
	// same condition before this end in program order.
	refs := sys.Threads[s.Thread]
	for k := len(refs) - 1; k >= 0; k-- {
		if refs[k] == end {
			for j := k - 1; j >= 0; j-- {
				b := sys.SAPs[refs[j]]
				if b.Kind == symexec.SAPWaitBegin && b.Cond == s.Cond {
					at, ok := beganAt[refs[j]]
					return at, ok
				}
			}
			return 0, false
		}
	}
	return 0, false
}

// consumeSignal tries to satisfy a wake that began at position began:
// first a broadcast after began, then the earliest unconsumed signal after
// began (greedy earliest-eligible matching is optimal for interval
// scheduling, so no completion is missed).
func consumeSignal(signalsAt, broadcastsAt map[ir.SyncID][]int, c ir.SyncID, began int) bool {
	for _, b := range broadcastsAt[c] {
		if b > began {
			return true
		}
	}
	ss := signalsAt[c]
	for k, sp := range ss {
		if sp > began {
			// In-place removal: the slice is scratch-owned, so shifting
			// keeps the backing array for reuse instead of reallocating.
			copy(ss[k:], ss[k+1:])
			signalsAt[c] = ss[:len(ss)-1]
			return true
		}
	}
	return false
}

// CountSwitches returns the total number of thread changes in the schedule
// and how many of them are preemptive. A switch away from thread T is
// preemptive when T could have continued: its next SAP's hard order
// predecessors (Fmo plus fork/join edges) were all already scheduled at
// the switch point and its SyncGate was open. Switches where T was
// finished or blocked (a join whose child had not exited, a lock held by
// another thread, a wake with no signal to consume, …) are the paper's
// non-preemptive, must-interleave switches (§4.2).
func (sys *System) CountSwitches(order []SAPRef) (switches, preemptions int) {
	v := sys.getValidator()
	defer sys.putValidator(v)
	return sys.countSwitches(v, order)
}

// countSwitches is CountSwitches over a caller-held scratch; its state is
// disjoint from the forward-pass half, so ValidateSchedule shares one
// validator for both.
func (sys *System) countSwitches(v *validator, order []SAPRef) (switches, preemptions int) {
	// preds[r] = hard-edge predecessors of r, cached on the system.
	preds := sys.hardPredsTable()
	v.resetForCount(sys, len(sys.SAPs))
	scheduled := v.scheduled
	next := v.next
	gate := v.gate
	ready := func(t trace.ThreadID) bool {
		refs := sys.Threads[t]
		for k := next[t]; k < len(refs); k++ {
			r := refs[k]
			if scheduled[r] {
				continue
			}
			ok := true
			for _, p := range preds[r] {
				if !scheduled[p] {
					ok = false
					break
				}
			}
			if ok && gate.Enabled(r) {
				return true
			}
		}
		return false
	}
	prev := trace.ThreadID(-1)
	for _, r := range order {
		s := sys.SAPs[r]
		if prev >= 0 && s.Thread != prev {
			switches++
			if ready(prev) {
				preemptions++
			}
		}
		scheduled[r] = true
		gate.Apply(r)
		for next[s.Thread] < len(sys.Threads[s.Thread]) && scheduled[sys.Threads[s.Thread][next[s.Thread]]] {
			next[s.Thread]++
		}
		prev = s.Thread
	}
	return switches, preemptions
}
