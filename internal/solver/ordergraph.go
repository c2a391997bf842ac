package solver

import "repro/internal/constraints"

// OrderGraph exposes the solver's Pearce–Kelly order graph (ordgraph.go)
// to other packages. The explain package's backtracking MUS oracle uses
// it with Mark/UndoTo. The CNF backend's lazy-transitivity loop uses it as
// the theory oracle: after each SAT model it orients every allocated pair
// variable into the graph, and each edge that closes a cycle yields a
// refinement lemma — no cubic transitivity axioms needed upfront.
type OrderGraph struct {
	g *ordGraph
	// Path scratch: parent pointers of the last DFS, generation-stamped so
	// repeated queries never reallocate.
	parent    []constraints.SAPRef
	parentGen []int32
	gen       int32
}

// NewOrderGraph creates an empty order graph over n nodes.
func NewOrderGraph(n int) *OrderGraph {
	return &OrderGraph{
		g:         newOrdGraph(n),
		parent:    make([]constraints.SAPRef, n),
		parentGen: make([]int32, n),
	}
}

// AddEdge inserts a < b, reporting false (and leaving the graph
// unchanged) when the edge would close a cycle.
func (o *OrderGraph) AddEdge(a, b constraints.SAPRef) bool { return o.g.addEdge(a, b) }

// Mark returns an undo point for UndoTo.
func (o *OrderGraph) Mark() int { return o.g.mark() }

// UndoTo removes every edge added after mark, last in first out. Like
// Reset, it keeps the topological ranks.
func (o *OrderGraph) UndoTo(mark int) { o.g.undoTo(mark) }

// Reset removes every edge. The topological ranks are kept — they remain
// a valid order for the empty graph, and preserving them across rounds
// means edges re-inserted from the next SAT model are mostly consistent
// insertions (the O(1) fast path of the PK scheme).
func (o *OrderGraph) Reset() { o.g.undoTo(0) }

// Path returns a directed path from → … → to over the current edges, or
// nil when to is unreachable. Used to extract the cycle behind a failed
// AddEdge(a, b): Path(b, a) plus the rejected edge a→b closes the loop.
func (o *OrderGraph) Path(from, to constraints.SAPRef) []constraints.SAPRef {
	if from == to {
		return []constraints.SAPRef{from}
	}
	g := o.g
	o.gen++
	gen := o.gen
	g.stack = append(g.stack[:0], from)
	o.parentGen[from] = gen
	o.parent[from] = from
	found := false
	for len(g.stack) > 0 && !found {
		n := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		for _, m := range g.adj[n] {
			if o.parentGen[m] == gen {
				continue
			}
			o.parentGen[m] = gen
			o.parent[m] = n
			if m == to {
				found = true
				break
			}
			g.stack = append(g.stack, m)
		}
	}
	if !found {
		return nil
	}
	var rev []constraints.SAPRef
	for n := to; ; n = o.parent[n] {
		rev = append(rev, n)
		if n == from {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
