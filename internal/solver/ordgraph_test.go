package solver

import (
	"math/rand"
	"testing"

	"repro/internal/constraints"
)

// naiveGraph is the reference implementation: a plain adjacency list with
// a full DFS cycle check per insertion — exactly the scheme ordGraph
// replaced. The differential test drives both with the same randomized
// edge/undo sequences and demands identical accept/reject answers.
type naiveGraph struct {
	adj   [][]constraints.SAPRef
	trail []ordEdge
}

func newNaiveGraph(n int) *naiveGraph {
	return &naiveGraph{adj: make([][]constraints.SAPRef, n)}
}

func (g *naiveGraph) reaches(from, to constraints.SAPRef) bool {
	if from == to {
		return true
	}
	seen := make([]bool, len(g.adj))
	stack := []constraints.SAPRef{from}
	seen[from] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		for _, m := range g.adj[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return false
}

func (g *naiveGraph) addEdge(a, b constraints.SAPRef) bool {
	if a == b || g.reaches(b, a) {
		return false
	}
	g.adj[a] = append(g.adj[a], b)
	g.trail = append(g.trail, ordEdge{from: a, to: b})
	return true
}

func (g *naiveGraph) mark() int { return len(g.trail) }

func (g *naiveGraph) undoTo(mark int) {
	for len(g.trail) > mark {
		e := g.trail[len(g.trail)-1]
		g.trail = g.trail[:len(g.trail)-1]
		g.adj[e.from] = g.adj[e.from][:len(g.adj[e.from])-1]
	}
}

// checkTopoOrder verifies ord is a strict topological order of the
// current edge set: every present edge ranks its head above its tail, and
// ranks are a permutation (all distinct).
func checkTopoOrder(t *testing.T, g *ordGraph) {
	t.Helper()
	used := make(map[int32]bool, len(g.ord))
	for _, r := range g.ord {
		if used[r] {
			t.Fatalf("duplicate rank %d", r)
		}
		used[r] = true
	}
	for a := range g.adj {
		for _, b := range g.adj[a] {
			if g.ord[a] >= g.ord[b] {
				t.Fatalf("edge %d->%d violates topological order (%d >= %d)",
					a, b, g.ord[a], g.ord[b])
			}
		}
	}
}

// TestOrdGraphDifferential drives the incremental detector and the naive
// full-recheck through randomized insert/undo/query sequences across many
// seeds and graph sizes, checking every answer agrees and the maintained
// order stays topological.
func TestOrdGraphDifferential(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		inc := newOrdGraph(n)
		ref := newNaiveGraph(n)
		type markPair struct{ inc, ref int }
		var marks []markPair
		ops := 300 + rng.Intn(700)
		for op := 0; op < ops; op++ {
			switch k := rng.Intn(10); {
			case k < 6: // insert a random edge
				a := constraints.SAPRef(rng.Intn(n))
				b := constraints.SAPRef(rng.Intn(n))
				got := inc.addEdge(a, b)
				want := ref.addEdge(a, b)
				if got != want {
					t.Fatalf("seed %d op %d: addEdge(%d,%d) incremental=%v naive=%v",
						seed, op, a, b, got, want)
				}
			case k < 7: // push an undo mark
				marks = append(marks, markPair{inc: inc.mark(), ref: ref.mark()})
			case k < 8: // pop to a random earlier mark
				if len(marks) > 0 {
					i := rng.Intn(len(marks))
					inc.undoTo(marks[i].inc)
					ref.undoTo(marks[i].ref)
					marks = marks[:i]
				}
			default: // reachability query
				a := constraints.SAPRef(rng.Intn(n))
				b := constraints.SAPRef(rng.Intn(n))
				if got, want := inc.reaches(a, b), ref.reaches(a, b); got != want {
					t.Fatalf("seed %d op %d: reaches(%d,%d) incremental=%v naive=%v",
						seed, op, a, b, got, want)
				}
			}
			if op%97 == 0 {
				checkTopoOrder(t, inc)
			}
		}
		checkTopoOrder(t, inc)
		// Full pairwise reachability agreement on the final graph.
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				ra, rb := constraints.SAPRef(a), constraints.SAPRef(b)
				if got, want := inc.reaches(ra, rb), ref.reaches(ra, rb); got != want {
					t.Fatalf("seed %d final: reaches(%d,%d) incremental=%v naive=%v", seed, a, b, got, want)
				}
			}
		}
	}
}

// TestOrdGraphDense exercises the inversion-heavy worst case: edges
// inserted in an order maximally inconsistent with the initial ranks.
func TestOrdGraphDense(t *testing.T) {
	const n = 64
	g := newOrdGraph(n)
	ref := newNaiveGraph(n)
	// Chain n-1 -> n-2 -> ... -> 0: every insertion inverts the initial
	// identity ranking.
	for i := n - 1; i > 0; i-- {
		a, b := constraints.SAPRef(i), constraints.SAPRef(i-1)
		if !g.addEdge(a, b) || !ref.addEdge(a, b) {
			t.Fatalf("chain edge %d->%d rejected", a, b)
		}
	}
	checkTopoOrder(t, g)
	// Closing the loop must be rejected and leave the graph usable.
	if g.addEdge(0, n-1) {
		t.Fatal("cycle-closing edge accepted")
	}
	checkTopoOrder(t, g)
	if !g.reaches(n-1, 0) || g.reaches(0, n-1) {
		t.Fatal("reachability wrong after rejected edge")
	}
}

// reaches reports whether to is reachable from from, trusting the
// topological order: a node never reaches one ranked below it, and the
// DFS frontier is pruned to the rank interval (ord[from], ord[to]]. A
// rank that broke the order would show as a wrong answer against
// naiveGraph.
func (g *ordGraph) reaches(from, to constraints.SAPRef) bool {
	if from == to {
		return true
	}
	bound := g.ord[to]
	if g.ord[from] > bound {
		return false
	}
	g.seenGen++
	gen := g.seenGen
	g.stack = append(g.stack[:0], from)
	g.seen[from] = gen
	for len(g.stack) > 0 {
		n := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		for _, m := range g.adj[n] {
			if m == to {
				return true
			}
			if g.seen[m] != gen && g.ord[m] < bound {
				g.seen[m] = gen
				g.stack = append(g.stack, m)
			}
		}
	}
	return false
}
