package explain_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/constraints"
	"repro/internal/explain"
	"repro/internal/symbolic"
)

// freshSystem builds sim_race's real constraint system — small enough for
// the oracle to decide exactly, rich enough to exercise every group kind
// the program has.
func freshSystem(t *testing.T) *constraints.System {
	t.Helper()
	b, ok := bench.ByName("sim_race")
	if !ok {
		t.Fatal("sim_race benchmark missing")
	}
	p, err := bench.Prepare(b)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := p.Recording.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestGroupsPartition(t *testing.T) {
	sys := freshSystem(t)
	groups := sys.Groups()
	if len(groups) == 0 {
		t.Fatal("no groups")
	}
	// Every hard edge must land in exactly one group.
	edges := 0
	ids := map[string]bool{}
	for _, g := range groups {
		if ids[g.ID] {
			t.Errorf("duplicate group id %s", g.ID)
		}
		ids[g.ID] = true
		edges += len(g.Edges)
	}
	if edges != len(sys.HardEdges) {
		t.Errorf("groups carry %d edges, system has %d", edges, len(sys.HardEdges))
	}
	if !ids["fbug"] {
		t.Error("missing fbug group")
	}
	// Determinism: two partitions of the same system agree.
	again := sys.Groups()
	if len(again) != len(groups) {
		t.Fatalf("partition not deterministic: %d vs %d groups", len(again), len(groups))
	}
	for i := range groups {
		if groups[i].ID != again[i].ID {
			t.Errorf("group %d: %s vs %s", i, groups[i].ID, again[i].ID)
		}
	}
}

func TestMinimizeUnsatSatisfiable(t *testing.T) {
	sys := freshSystem(t)
	core := explain.MinimizeUnsat(sys)
	if !core.Satisfiable {
		t.Fatalf("sim_race's real system should be satisfiable, got unsat=%v", core.Unsat)
	}
	var sb strings.Builder
	core.Render(&sb)
	if !strings.Contains(sb.String(), "satisfiable") {
		t.Errorf("verdict should mention satisfiability:\n%s", sb.String())
	}
}

func TestMinimizeUnsatCycle(t *testing.T) {
	sys := freshSystem(t)
	// Construct an unsatisfiable input: a cross-thread order cycle between
	// the first SAPs of two threads. Both edges classify as fso/order, so
	// the minimal core must be exactly that group.
	if len(sys.Threads) < 2 {
		t.Fatal("need two threads")
	}
	a, b := sys.Threads[0][0], sys.Threads[1][0]
	sys.HardEdges = append(sys.HardEdges, [2]constraints.SAPRef{a, b}, [2]constraints.SAPRef{b, a})

	core := explain.MinimizeUnsat(sys)
	if !core.Unsat {
		t.Fatal("constructed cycle not reported unsat")
	}
	if len(core.Groups) == 0 {
		t.Fatal("empty minimal core")
	}
	if len(core.Groups) != 1 || core.Groups[0].ID != "fso/order" {
		ids := make([]string, 0, len(core.Groups))
		for _, g := range core.Groups {
			ids = append(ids, g.ID)
		}
		t.Fatalf("expected core {fso/order}, got %v", ids)
	}
	var sb strings.Builder
	core.Render(&sb)
	if !strings.Contains(sb.String(), "no schedule exists") ||
		!strings.Contains(sb.String(), "fso/order") {
		t.Errorf("verdict missing core details:\n%s", sb.String())
	}
}

func TestMinimizeUnsatFalseBug(t *testing.T) {
	sys := freshSystem(t)
	// A bug predicate that cannot hold: the core must be {fbug} alone.
	sys.Bug = symbolic.Bool(false)
	core := explain.MinimizeUnsat(sys)
	if !core.Unsat {
		t.Fatal("false bug predicate not reported unsat")
	}
	if len(core.Groups) != 1 || core.Groups[0].ID != "fbug" {
		ids := make([]string, 0, len(core.Groups))
		for _, g := range core.Groups {
			ids = append(ids, g.ID)
		}
		t.Fatalf("expected core {fbug}, got %v", ids)
	}
}
