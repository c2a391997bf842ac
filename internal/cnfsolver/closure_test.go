package cnfsolver_test

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/vm"
)

// TestClosureLeavesNoOrderedPair pins the hard-order closure on the
// systems of oracleSystems (SC, TSO and PSO) and the Table 1 recordings.
// The closure must agree with the transitive closure constraints.NewReach
// computes on every SAP pair, and after a full SolveMinimal no order
// variable may join two SAPs the hard edges already order, the hard edges
// themselves aside: every other such pair is a constant.
func TestClosureLeavesNoOrderedPair(t *testing.T) {
	systems := oracleSystems(t)
	for _, b := range bench.All() {
		systems = append(systems, namedSystem{b.Name, recordBench(t, b.Name, 0)})
	}
	models := map[vm.MemModel]int{}
	for _, c := range systems {
		sys := c.sys
		reach := constraints.NewReach(len(sys.SAPs), sys.HardEdges)
		if reach == nil {
			t.Fatalf("%s: cyclic hard edges", c.name)
		}
		sess := cnfsolver.NewSession(sys, cnfsolver.Options{Deadline: 60 * time.Second})
		for a := range sys.SAPs {
			for b := range sys.SAPs {
				x, y := constraints.SAPRef(a), constraints.SAPRef(b)
				if a != b && sess.HardBefore(x, y) != reach.Reaches(x, y) {
					t.Fatalf("%s: closure says %v for SAP %d before %d, the transitive closure %v", c.name, sess.HardBefore(x, y), a, b, reach.Reaches(x, y))
				}
			}
		}
		if _, _, err := sess.SolveMinimal(0); err != nil {
			t.Fatalf("%s: SolveMinimal: %v", c.name, err)
		}
		hard := map[[2]constraints.SAPRef]bool{}
		for _, e := range sys.HardEdges {
			hard[e] = true
			hard[[2]constraints.SAPRef{e[1], e[0]}] = true
		}
		for _, p := range sess.OrderPairs() {
			if !hard[p] && (reach.Reaches(p[0], p[1]) || reach.Reaches(p[1], p[0])) {
				t.Errorf("%s: order variable for SAPs %d and %d, which the hard edges order", c.name, p[0], p[1])
			}
		}
		models[sys.Model]++
	}
	if models[vm.SC] == 0 || models[vm.TSO] == 0 || models[vm.PSO] == 0 {
		t.Fatalf("systems per memory model: %v; every model must be covered", models)
	}
	t.Logf("systems per memory model: %v", models)
}
