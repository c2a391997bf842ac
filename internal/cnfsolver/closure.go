package cnfsolver

import (
	"repro/internal/constraints"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/vm"
)

// This file is the hard-order closure. The hard edges (each memory
// model's Fmo program order, fork→start and exit→join) hold in every
// schedule, and so does everything they imply by transitivity. The
// encoder uses that in two ways:
//
//   - A pair the hard edges order gets no variable: lit returns a constant
//     literal, so clauses over it shrink or vanish at level 0 and no cycle
//     lemma is ever learnt about it. The hard edges themselves keep their
//     variables, which refineAcyclic and linearize read from pairs.
//   - A pair they leave open gets a variable linked by binary clauses to
//     the variables it shares an endpoint with, along the hard order: for
//     a partner z of s hard-before o, (s<z)→(s<o), and for one hard-after
//     o, (s<o)→(s<z). Each new variable is linked to its nearest partners
//     only; the older links complete the chains, so for any two partners
//     of s one hard-before the other, unit propagation derives the
//     implication between their variables (see link).
//
// Every such clause holds in every order that respects the hard edges, so
// the models, schedules and refuted bounds are those of the plain
// encoding; what shrinks is the cycle refinement, which otherwise learns
// this program-order transitivity one rejected assignment at a time.

// hardOrder answers whether the hard edges order two SAPs, in constant
// time and O(SAPs × chains) space: vector clocks over a chain cover of
// the hard-edge DAG. The chains are each thread's execution chain and
// its buffered writes (one chain under TSO, per-address runs under PSO);
// clock(v)[c] is the last position on chain c whose SAP precedes v (v's
// own position when c is v's chain), -1 when none does.
type hardOrder struct {
	chain, pos []int32 // per SAP: its chain and its position on it
	off, width []int32 // per SAP: where its clock starts and how long it is
	clock      []int32
}

// buffered reports whether SAP r is a TSO/PSO write, which drains from a
// store buffer rather than running in its thread's execution chain.
func buffered(sys *constraints.System, r constraints.SAPRef) bool {
	return sys.Model != vm.SC && sys.SAPs[r].Kind == symexec.SAPWrite
}

// newHardOrder computes the closure of sys's hard edges. It returns nil
// when there are none, or when they are cyclic: the system is then
// unsatisfiable, and the cycle check reports it.
func newHardOrder(sys *constraints.System) *hardOrder {
	n := len(sys.SAPs)
	if len(sys.HardEdges) == 0 {
		return nil
	}
	// Predecessor and successor lists, CSR form.
	predStart := make([]int32, n+1)
	succStart := make([]int32, n+1)
	for _, e := range sys.HardEdges {
		predStart[e[1]+1]++
		succStart[e[0]+1]++
	}
	for i := 0; i < n; i++ {
		predStart[i+1] += predStart[i]
		succStart[i+1] += succStart[i]
	}
	preds := make([]int32, len(sys.HardEdges))
	succs := make([]int32, len(sys.HardEdges))
	pfill := append([]int32(nil), predStart[:n]...)
	sfill := append([]int32(nil), succStart[:n]...)
	indeg := make([]int32, n)
	for _, e := range sys.HardEdges {
		a, b := int32(e[0]), int32(e[1])
		preds[pfill[b]] = a
		pfill[b]++
		succs[sfill[a]] = b
		sfill[a]++
		indeg[b]++
	}
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	h := &hardOrder{
		chain: make([]int32, n), pos: make([]int32, n),
		off: make([]int32, n), width: make([]int32, n),
	}
	type kind struct {
		t        trace.ThreadID
		buffered bool
	}
	chainsOf := map[kind][]int32{}
	var last []int32 // per chain: its last position
	// Kahn's order: every SAP's predecessors have their clocks when it
	// takes its own.
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		off := int32(len(h.clock))
		for range last {
			h.clock = append(h.clock, -1)
		}
		for _, p := range preds[predStart[v]:predStart[v+1]] {
			for c, x := range h.clock[h.off[p] : h.off[p]+h.width[p]] {
				h.clock[off+int32(c)] = max(h.clock[off+int32(c)], x)
			}
		}
		// Extend a chain of v's kind whose last SAP precedes v, the most
		// recent first; else start one.
		k := kind{sys.SAPs[v].Thread, buffered(sys, constraints.SAPRef(v))}
		c := int32(-1)
		for j := len(chainsOf[k]) - 1; j >= 0; j-- {
			if cc := chainsOf[k][j]; h.clock[off+cc] == last[cc] {
				c = cc
				break
			}
		}
		if c < 0 {
			c = int32(len(last))
			last = append(last, -1)
			h.clock = append(h.clock, -1)
			chainsOf[k] = append(chainsOf[k], c)
		}
		last[c]++
		h.chain[v], h.pos[v] = c, last[c]
		h.clock[off+c] = last[c]
		h.off[v], h.width[v] = off, int32(len(h.clock))-off
		for _, s := range succs[succStart[v]:succStart[v+1]] {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(queue) != n {
		return nil
	}
	return h
}

// before reports whether the hard edges put SAP a before SAP b (a ≠ b).
func (h *hardOrder) before(a, b int) bool {
	c := h.chain[a]
	return c < h.width[b] && h.clock[h.off[b]+c] >= h.pos[a]
}

// link chains the new variable "s before o" to the variables of s's
// partners, the SAPs it already shares a variable with. Among the
// partners hard-before o it links to the nearest, those no other one lies
// between and o, each by (s<p)→(s<o); among those hard-after o, to the
// nearest, each by (s<o)→(s<q). That is enough for full propagation: by
// induction over the variables created, for partners a hard-before b a
// path of links leads from s<a to s<b. When the later of the two, say b,
// arrived, a was hard-before b, so a was a nearest partner p or hard-before
// one; the path runs from s<a to s<p, which already existed, and on to s<b
// by b's own link.
func (e *encoder) link(s, o int) {
	h := e.hard
	lo, hi := e.lo[:0], e.hi[:0]
	for _, z := range e.partners[s] {
		switch {
		case h.before(int(z), o):
			lo = nearest(h, lo, z, true)
		case h.before(o, int(z)):
			hi = nearest(h, hi, z, false)
		}
	}
	so := e.lit(s, o)
	for _, p := range lo {
		e.add(e.lit(s, int(p)).Not(), so)
	}
	for _, q := range hi {
		e.add(so.Not(), e.lit(s, int(q)))
	}
	e.lo, e.hi = lo, hi
	e.partners[s] = append(e.partners[s], int32(o))
}

// nearest adds z to set, the nearest partners found so far on one side of
// o: the latest ones when late, else the earliest. It keeps only the
// elements no other element lies between and o.
func nearest(h *hardOrder, set []int32, z int32, late bool) []int32 {
	beyond := func(a, b int32) bool { // a is nearer to o than b
		if late {
			return h.before(int(b), int(a))
		}
		return h.before(int(a), int(b))
	}
	for _, x := range set {
		if beyond(x, z) {
			return set
		}
	}
	out := set[:0]
	for _, x := range set {
		if !beyond(z, x) {
			out = append(out, x)
		}
	}
	return append(out, z)
}
