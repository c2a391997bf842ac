// Package oracle is a brute-force reference for CLAP's constraint systems,
// for tests. Enumerate walks every linear extension of a system's hard
// edges — no preemption bound, no pruning — and keeps the orders
// constraints.ValidateSchedule accepts. It imports no solver package, so
// the only code it shares with what it checks is ValidateSchedule, which
// defines what a model is. Exhaustive exploration as the test oracle of a
// faster analysis follows C11Tester (PAPERS.md).
//
// The walk is exponential in the SAP count; Program draws random
// programs small enough for it.
package oracle

import (
	"fmt"
	"slices"

	"repro/internal/constraints"
)

// Enumerate walks the linear extensions of sys.HardEdges and calls visit
// with each one that validates and its witness. The order slice is reused
// between calls; copy it to keep it. The walk stops after limit orders,
// valid or not, and reports whether it walked every extension.
func Enumerate(sys *constraints.System, limit int, visit func(order []constraints.SAPRef, w *constraints.Witness)) (complete bool) {
	n := len(sys.SAPs)
	succ := make([][]constraints.SAPRef, n)
	indeg := make([]int, n)
	for _, e := range sys.HardEdges {
		succ[e[0]] = append(succ[e[0]], e[1])
		indeg[e[1]]++
	}
	order := make([]constraints.SAPRef, 0, n)
	walked := 0
	var walk func() bool
	walk = func() bool {
		if len(order) == n {
			if walked == limit {
				return false
			}
			walked++
			if w, err := sys.ValidateSchedule(order); err == nil {
				visit(order, w)
			}
			return true
		}
		for r := range n {
			if indeg[r] != 0 {
				continue
			}
			indeg[r] = -1 // placed
			for _, s := range succ[r] {
				indeg[s]--
			}
			order = append(order, constraints.SAPRef(r))
			more := walk()
			order = order[:len(order)-1]
			for _, s := range succ[r] {
				indeg[s]++
			}
			indeg[r] = 0
			if !more {
				return false
			}
		}
		return true
	}
	return walk()
}

// Mapping returns the read→write mapping a witness realizes, one entry per
// sys.Reads element and keyed like cnfsolver.Session.Mapping: −1 for a
// free read, 0 for the initial value, k for Cands[k-1]. A validated
// schedule whose read takes a write that preprocessing pruned from Cands,
// or the initial value it ruled out, proves the pruning unsound; Mapping
// reports that as an error.
func Mapping(sys *constraints.System, w *constraints.Witness) ([]int, error) {
	m := make([]int, len(sys.Reads))
	for i := range sys.Reads {
		ri := &sys.Reads[i]
		if ri.Free {
			m[i] = -1
			continue
		}
		switch wr := w.MappedWrite[ri.Read]; {
		case wr < 0 && ri.NoInit:
			return nil, fmt.Errorf("oracle: read %s takes the initial value that preprocessing ruled out", sys.SAP(ri.Read))
		case wr < 0:
			m[i] = 0
		default:
			k := slices.Index(ri.Cands, wr)
			if k < 0 {
				return nil, fmt.Errorf("oracle: read %s takes write %s, which preprocessing pruned from its candidates", sys.SAP(ri.Read), sys.SAP(wr))
			}
			m[i] = k + 1
		}
	}
	return m, nil
}
