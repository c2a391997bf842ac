package solver

import (
	"math/rand"
	"testing"

	"repro/internal/constraints"
)

func TestOrderGraphCycleAndPath(t *testing.T) {
	g := NewOrderGraph(4)
	for _, e := range [][2]constraints.SAPRef{{0, 1}, {1, 2}, {2, 3}} {
		if !g.AddEdge(e[0], e[1]) {
			t.Fatalf("edge %v rejected", e)
		}
	}
	if g.AddEdge(3, 0) {
		t.Fatal("cycle-closing edge accepted")
	}
	// The cycle witness: 0 →* 3 exists so the rejected edge 3→0 closes it.
	path := g.Path(0, 3)
	want := []constraints.SAPRef{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if g.Path(3, 0) != nil {
		t.Fatal("reverse path must be unreachable")
	}
}

func TestOrderGraphTopoOrderAndReset(t *testing.T) {
	g := NewOrderGraph(5)
	edges := [][2]constraints.SAPRef{{4, 2}, {2, 0}, {3, 1}, {0, 3}}
	for _, e := range edges {
		if !g.AddEdge(e[0], e[1]) {
			t.Fatalf("edge %v rejected", e)
		}
	}
	checkTopoOrder(t, g.g)
	// After Reset the once-cyclic edge inserts cleanly.
	g.Reset()
	if !g.AddEdge(1, 4) {
		t.Fatal("edge rejected after Reset")
	}
}

// TestOrderGraphRandomized cross-checks AddEdge's cycle verdicts and the
// maintained topological order against a straightforward DAG invariant on
// random insertion sequences.
func TestOrderGraphRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		const n = 12
		g := NewOrderGraph(n)
		for k := 0; k < 40; k++ {
			a := constraints.SAPRef(r.Intn(n))
			b := constraints.SAPRef(r.Intn(n))
			if a == b {
				continue
			}
			wasCyclic := g.Path(b, a) != nil
			got := g.AddEdge(a, b)
			if got == wasCyclic {
				t.Fatalf("trial %d: AddEdge(%d,%d) = %v but Path(b,a) reachable = %v", trial, a, b, got, wasCyclic)
			}
			checkTopoOrder(t, g.g)
		}
	}
}
