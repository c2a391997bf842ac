package solver

import (
	"sort"

	"repro/internal/constraints"
)

// ordGraph is the order graph with incremental cycle detection.
//
// It maintains a topological order ord[] of the nodes across edge
// insertions in the style of Pearce & Kelly ("A Dynamic Topological Sort
// Algorithm for Directed Acyclic Graphs", JEA 2006): an inserted edge
// a < b with ord[a] < ord[b] is consistent with the current order and
// costs O(1); only an inversion (ord[a] > ord[b]) triggers a search, and
// that search is confined to the "affected region" — nodes whose rank
// lies between ord[b] and ord[a]. A cycle is discovered exactly when the
// forward search from b inside that region hits a.
//
// Edge deletion (a caller backtracking its trail) is O(1) per edge and
// never touches ord: a topological order of G remains a topological order
// of any subgraph of G, so undo just pops the adjacency lists. This is
// what makes the scheme fit chronological backtracking so well — a
// trail-based search deletes edges in strict LIFO order and pays nothing
// for it.
type ordGraph struct {
	adj  [][]constraints.SAPRef // forward adjacency
	radj [][]constraints.SAPRef // reverse adjacency (for the backward search)
	ord  []int32                // current topological rank of each node

	trail []ordEdge

	// Generation-stamped DFS scratch of the PK searches.
	seen    []int32
	seenGen int32
	stack   []constraints.SAPRef

	// Affected-region scratch, reused across insertions.
	deltaF, deltaB []constraints.SAPRef
	rankPool       []int32
}

type ordEdge struct {
	from, to constraints.SAPRef
}

func newOrdGraph(n int) *ordGraph {
	g := &ordGraph{
		adj:  make([][]constraints.SAPRef, n),
		radj: make([][]constraints.SAPRef, n),
		ord:  make([]int32, n),
		seen: make([]int32, n),
	}
	for i := range g.ord {
		g.ord[i] = int32(i)
	}
	return g
}

// mark returns an undo point for undoTo.
func (g *ordGraph) mark() int { return len(g.trail) }

// undoTo removes every edge added after the given mark, in LIFO order.
// The topological order is intentionally left alone (still valid for the
// smaller graph).
func (g *ordGraph) undoTo(mark int) {
	for len(g.trail) > mark {
		e := g.trail[len(g.trail)-1]
		g.trail = g.trail[:len(g.trail)-1]
		g.adj[e.from] = g.adj[e.from][:len(g.adj[e.from])-1]
		g.radj[e.to] = g.radj[e.to][:len(g.radj[e.to])-1]
	}
}

// addEdge inserts a < b, reporting false (and leaving the graph
// unchanged) when the edge would close a cycle.
func (g *ordGraph) addEdge(a, b constraints.SAPRef) bool {
	if a == b {
		return false
	}
	if g.ord[a] >= g.ord[b] {
		// The edge inverts the current order: search the affected region.
		if !g.discover(a, b) {
			return false
		}
		g.reorder()
	}
	g.adj[a] = append(g.adj[a], b)
	g.radj[b] = append(g.radj[b], a)
	g.trail = append(g.trail, ordEdge{from: a, to: b})
	return true
}

// discover runs the two bounded searches of the PK insertion for the edge
// a < b: forward from b over nodes ranked below a (filling deltaF), and
// backward from a over nodes ranked above b (filling deltaB). It reports
// false when the forward search reaches a, i.e. b already reaches a and
// the new edge would create a cycle.
func (g *ordGraph) discover(a, b constraints.SAPRef) bool {
	ub, lb := g.ord[a], g.ord[b]

	g.seenGen++
	gen := g.seenGen
	g.deltaF = g.deltaF[:0]
	g.stack = append(g.stack[:0], b)
	g.seen[b] = gen
	for len(g.stack) > 0 {
		n := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		g.deltaF = append(g.deltaF, n)
		for _, m := range g.adj[n] {
			if m == a {
				return false // b reaches a: cycle
			}
			if g.seen[m] != gen && g.ord[m] < ub {
				g.seen[m] = gen
				g.stack = append(g.stack, m)
			}
		}
	}

	g.seenGen++
	gen = g.seenGen
	g.deltaB = g.deltaB[:0]
	g.stack = append(g.stack[:0], a)
	g.seen[a] = gen
	for len(g.stack) > 0 {
		n := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		g.deltaB = append(g.deltaB, n)
		for _, m := range g.radj[n] {
			if g.seen[m] != gen && g.ord[m] > lb {
				g.seen[m] = gen
				g.stack = append(g.stack, m)
			}
		}
	}
	return true
}

// reorder reassigns the ranks held by deltaB ∪ deltaF so that every
// node of deltaB (… →* a) sorts below every node of deltaF (b →* …).
// The two sets are disjoint — overlap would mean b →* x →* a, which
// discover already rejected as a cycle — so the pooled ranks are simply
// redistributed: deltaB keeps the low ones, deltaF the high ones, with
// each set's internal order preserved.
func (g *ordGraph) reorder() {
	sort.Slice(g.deltaB, func(i, j int) bool { return g.ord[g.deltaB[i]] < g.ord[g.deltaB[j]] })
	sort.Slice(g.deltaF, func(i, j int) bool { return g.ord[g.deltaF[i]] < g.ord[g.deltaF[j]] })
	g.rankPool = g.rankPool[:0]
	for _, n := range g.deltaB {
		g.rankPool = append(g.rankPool, g.ord[n])
	}
	for _, n := range g.deltaF {
		g.rankPool = append(g.rankPool, g.ord[n])
	}
	sort.Slice(g.rankPool, func(i, j int) bool { return g.rankPool[i] < g.rankPool[j] })
	k := 0
	for _, n := range g.deltaB {
		g.ord[n] = g.rankPool[k]
		k++
	}
	for _, n := range g.deltaF {
		g.ord[n] = g.rankPool[k]
		k++
	}
}
