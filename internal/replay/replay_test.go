package replay_test

import (
	"strings"
	"testing"

	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/solver"
	"repro/internal/vm"
)

func solveOne(t *testing.T, src string, model vm.MemModel) (*core.Recording, *constraints.System, *solver.Solution) {
	t.Helper()
	prog, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.Record(prog, core.RecordOptions{Model: model, SeedLimit: 4000})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rec.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := cnfsolver.NewSession(sys, cnfsolver.Options{}).SolveMinimal(0)
	if err != nil {
		t.Fatal(err)
	}
	return rec, sys, sol
}

const figure2SC = `
int x;
int y;
func t1() {
	int r1 = x;
	x = r1 + 1;
	int r2 = y;
	if (r2 > 0) {
		int r3 = x;
		assert(r3 > 0, "assert1");
	}
}
func main() {
	int h;
	h = spawn t1();
	x = 2;
	x = x - 3;
	y = 1;
	join(h);
}
`

func TestOrderEnforcedVerifiesEvents(t *testing.T) {
	rec, sys, sol := solveOne(t, figure2SC, vm.SC)
	out, err := replay.Run(sys, sol, replay.Options{Mode: replay.OrderEnforced, Inputs: rec.Inputs})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reproduced {
		t.Fatal("not reproduced")
	}
	if out.EventsMatched < len(sol.Order)-2 {
		t.Errorf("only %d of %d events verified", out.EventsMatched, len(sol.Order))
	}
	if out.Failure == nil || out.Failure.Kind != vm.FailAssert {
		t.Errorf("failure = %v", out.Failure)
	}
}

func TestValueInjectedAlsoWorksOnSC(t *testing.T) {
	rec, sys, sol := solveOne(t, figure2SC, vm.SC)
	out, err := replay.Run(sys, sol, replay.Options{Mode: replay.ValueInjected, Inputs: rec.Inputs})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reproduced {
		t.Fatal("value-injected replay must also reproduce SC bugs")
	}
}

func TestCorruptedScheduleDetected(t *testing.T) {
	rec, sys, sol := solveOne(t, figure2SC, vm.SC)
	// Swap two SAPs of the same thread: the replayed event order then
	// contradicts the expectations and the replayer must report it rather
	// than silently diverge.
	bad := *sol
	bad.Order = append([]constraints.SAPRef(nil), sol.Order...)
	var i1, i2 = -1, -1
	for i, ref := range bad.Order {
		if sys.SAP(ref).Thread == 0 {
			if i1 == -1 {
				i1 = i
			} else {
				i2 = i
				break
			}
		}
	}
	bad.Order[i1], bad.Order[i2] = bad.Order[i2], bad.Order[i1]
	_, err := replay.Run(sys, &bad, replay.Options{Mode: replay.OrderEnforced, Inputs: rec.Inputs})
	if err == nil {
		t.Fatal("corrupted schedule must be detected")
	}
	if !strings.Contains(err.Error(), "replay") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestModeForAndString(t *testing.T) {
	if replay.ModeFor(vm.SC) != replay.OrderEnforced {
		t.Error("SC must use order-enforced replay")
	}
	if replay.ModeFor(vm.TSO) != replay.ValueInjected || replay.ModeFor(vm.PSO) != replay.ValueInjected {
		t.Error("relaxed models must use value injection")
	}
	if replay.OrderEnforced.String() != "order-enforced" || replay.ValueInjected.String() != "value-injected" {
		t.Error("mode strings wrong")
	}
}

func TestReplayDeterministicAcrossRuns(t *testing.T) {
	rec, sys, sol := solveOne(t, figure2SC, vm.SC)
	for i := 0; i < 5; i++ {
		out, err := replay.Run(sys, sol, replay.Options{Mode: replay.OrderEnforced, Inputs: rec.Inputs})
		if err != nil || !out.Reproduced {
			t.Fatalf("run %d: err=%v reproduced=%v", i, err, out != nil && out.Reproduced)
		}
	}
}
