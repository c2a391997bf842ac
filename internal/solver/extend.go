package solver

import (
	"repro/internal/constraints"
	"repro/internal/schedule"
)

// extendSchedules enumerates linear extensions of the decided order graph
// whose preemptive context-switch count is at most s.bound, streaming each
// complete order into sink (which returns false to stop). The walk prefers
// staying on the current thread (fewest switches first), mirroring the
// paper's preemption-bounded schedule shape.
func (s *search) extendSchedules(sink func(order []constraints.SAPRef) bool) {
	n := len(s.sys.SAPs)
	// Incoming-degree counting over the decided graph.
	indeg := make([]int, n)
	for a := range s.g.adj {
		for _, b := range s.g.adj[a] {
			indeg[b]++
		}
	}
	scheduled := make([]bool, n)
	order := make([]constraints.SAPRef, 0, n)
	stop := false
	nodes := 0

	// readyOf returns thread t's schedulable SAPs (all preds scheduled).
	readyOf := func(t int) []constraints.SAPRef {
		var out []constraints.SAPRef
		for _, r := range s.sys.Threads[t] {
			if !scheduled[r] && indeg[r] == 0 {
				out = append(out, r)
			}
		}
		return out
	}
	take := func(r constraints.SAPRef) {
		scheduled[r] = true
		order = append(order, r)
		for _, b := range s.g.adj[r] {
			indeg[b]--
		}
	}
	untake := func(r constraints.SAPRef) {
		for _, b := range s.g.adj[r] {
			indeg[b]++
		}
		order = order[:len(order)-1]
		scheduled[r] = false
	}

	var walk func(cur int, used int, justSwitched bool)
	walk = func(cur int, used int, justSwitched bool) {
		if stop {
			return
		}
		nodes++
		if nodes > extendNodeBudget {
			// Exponential wandering at an infeasible bound: give up on
			// this mapping; the caller treats it as no-extension.
			stop = true
			return
		}
		if nodes%schedule.PollStride == 0 && s.stopped() {
			stop = true
			return
		}
		if len(order) == n {
			if !sink(order) {
				stop = true
			}
			return
		}
		ready := readyOf(cur)
		for _, r := range ready {
			take(r)
			walk(cur, used, false)
			untake(r)
			if stop {
				return
			}
		}
		if justSwitched {
			return
		}
		for t := range s.sys.Threads {
			if t == cur {
				continue
			}
			cost := 0
			if len(ready) > 0 {
				cost = 1
			}
			if used+cost > s.bound {
				continue
			}
			if len(readyOf(t)) == 0 {
				continue
			}
			walk(t, used+cost, true)
			if stop {
				return
			}
		}
	}
	// Start with any thread that can schedule its first SAP (normally
	// main, which owns the first Start).
	for t := range s.sys.Threads {
		if len(readyOf(t)) > 0 {
			walk(t, 0, true)
			if stop {
				return
			}
		}
	}
}
