package schedule

import (
	"fmt"
	"testing"

	"repro/internal/constraints"
	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/symexec"
	"repro/internal/vm"
)

// buildFailingSystem records src until it fails and encodes the system.
func buildFailingSystem(t *testing.T, src string, model vm.MemModel, maxSeed int64) *constraints.System {
	t.Helper()
	prog, err := ir.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	esc := escape.Analyze(prog)
	for seed := int64(0); seed < maxSeed; seed++ {
		rec, err := vm.NewPathRecorder(prog)
		if err != nil {
			t.Fatal(err)
		}
		machine, err := vm.New(prog, vm.Config{
			Model: model, Sched: vm.NewRandomScheduler(seed),
			Shared: esc.Shared, PathRecorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := machine.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Failure == nil || res.Failure.Kind != vm.FailAssert {
			continue
		}
		an, err := symexec.Analyze(prog, rec.Paths, rec.Log, symexec.Options{
			Shared:  esc.Shared,
			Failure: symexec.FailureSpec{Thread: res.Failure.Thread, Site: res.Failure.Site},
		})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := constraints.Build(an, model)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	t.Fatalf("no failing seed in %d tries", maxSeed)
	return nil
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

func TestGenerateFindsValidSchedule(t *testing.T) {
	sys := buildFailingSystem(t, figure2SC, vm.SC, 3000)
	g := NewGenerator(sys, Options{RespectHardEdges: true, MaxSchedules: 2_000_000})
	var valid [][]constraints.SAPRef
	var minPre = -1
	for c := 0; c <= 4 && len(valid) == 0; c++ {
		res := g.Generate(c, func(order []constraints.SAPRef, pre int) bool {
			if pre > c {
				t.Fatalf("generated %d preemptions under bound %d", pre, c)
			}
			if _, err := sys.ValidateSchedule(order); err == nil {
				cp := make([]constraints.SAPRef, len(order))
				copy(cp, order)
				valid = append(valid, cp)
				minPre = pre
			}
			return true
		})
		if res.Capped {
			t.Fatalf("generation capped at bound %d", c)
		}
	}
	if len(valid) == 0 {
		t.Fatal("no valid schedule found up to 4 preemptions")
	}
	if minPre > 3 {
		t.Errorf("figure 2 bug needs %d preemptions, expected <= 3", minPre)
	}
	// The witness of the found schedule must manifest the bug.
	w, err := sys.ValidateSchedule(valid[0])
	if err != nil {
		t.Fatal(err)
	}
	if w.Preemptions > minPre {
		t.Errorf("witness preemptions %d > generation count %d", w.Preemptions, minPre)
	}
}

func TestGenerationDedupAcrossBounds(t *testing.T) {
	sys := buildFailingSystem(t, figure2SC, vm.SC, 3000)
	g := NewGenerator(sys, Options{RespectHardEdges: true, MaxSchedules: 500_000})
	seen := map[string]int{}
	for c := 0; c <= 2; c++ {
		g.Generate(c, func(order []constraints.SAPRef, pre int) bool {
			key := fmt.Sprint(order)
			if prev, dup := seen[key]; dup {
				t.Fatalf("schedule generated twice (bounds %d and %d): %v", prev, c, order)
			}
			seen[key] = c
			if pre != c {
				t.Fatalf("bound %d emitted schedule with %d preemptions", c, pre)
			}
			return true
		})
	}
	if len(seen) == 0 {
		t.Fatal("nothing generated")
	}
}

func TestGenerateZeroPreemptionsSerial(t *testing.T) {
	// With zero preemptions every generated schedule runs each thread to a
	// forced stop; for a simple fork/join program the count is small.
	src := `
int x;
func child() { x = 1; }
func main() {
	int h;
	h = spawn child();
	join(h);
	int v = x;
	assert(v == 0, "raced");
}
`
	sys := buildFailingSystem(t, src, vm.SC, 200)
	g := NewGenerator(sys, Options{RespectHardEdges: true})
	res := g.Generate(0, nil)
	if res.Generated == 0 {
		t.Fatal("no serial schedules generated")
	}
	validCount := 0
	for _, order := range res.Schedules {
		if w, err := sys.ValidateSchedule(order); err == nil {
			validCount++
			if w.Preemptions != 0 {
				t.Errorf("c=0 schedule has %d preemptions", w.Preemptions)
			}
		}
	}
	// assert(v == 0) fails when v == 1, i.e. when the child's write lands
	// before the read — which the only serial schedule (main blocks at
	// join, child runs to completion) produces. So the bug reproduces with
	// zero preemptions here.
	if validCount == 0 {
		t.Error("expected the serial schedule to reproduce the bug at c=0")
	}
}

func TestRelaxedGenerationExploresReordering(t *testing.T) {
	src := `
int x;
int y;
func t2() {
	int r1 = y;
	if (r1 == 1) {
		int r2 = x;
		assert(r2 == 1, "write reorder observed");
	}
}
func main() {
	int h;
	h = spawn t2();
	x = 1;
	y = 1;
	join(h);
}
`
	sys := buildFailingSystem(t, src, vm.PSO, 3000)
	g := NewGenerator(sys, Options{RespectHardEdges: true, MaxSchedules: 2_000_000})
	found := false
	for c := 0; c <= 3 && !found; c++ {
		g.Generate(c, func(order []constraints.SAPRef, pre int) bool {
			if _, err := sys.ValidateSchedule(order); err == nil {
				found = true
				return false
			}
			return true
		})
	}
	if !found {
		t.Fatal("relaxed generation never produced a valid PSO schedule")
	}
}

func TestCSPString(t *testing.T) {
	c := CSP{T1: 1, K: 3, T2: 2}
	if c.String() != "(t1,3,t2)" {
		t.Errorf("CSP renders %q", c.String())
	}
}

func TestMaxSchedulesCap(t *testing.T) {
	sys := buildFailingSystem(t, figure2SC, vm.SC, 3000)
	g := NewGenerator(sys, Options{RespectHardEdges: true, MaxSchedules: 3})
	res := g.Generate(1, nil)
	if !res.Capped {
		t.Fatal("cap must be reported")
	}
	if res.Generated != 3 {
		t.Fatalf("generated %d, want 3", res.Generated)
	}
}

// lostUpdates has two threads racing on read-modify-write pairs: enough
// SAPs for a bound-3 walk of many strides.
const lostUpdates = `
int x;
int y;
func w() {
	x = x + 1;
	y = y + 1;
	x = x + 1;
	y = y + 1;
}
func main() {
	int h1 = spawn w();
	int h2 = spawn w();
	join(h1);
	join(h2);
	assert(x == 4, "lost update");
}
`

// TestStopEndsWalkWithinStride checks the deadline hook: a Stop that
// returns true ends generation at its first poll, one PollStride into the
// walk, on both the SC and the relaxed walk, and the run reports Capped so
// no caller mistakes it for an exhaustive enumeration.
func TestStopEndsWalkWithinStride(t *testing.T) {
	for _, model := range []vm.MemModel{vm.SC, vm.TSO} {
		t.Run(model.String(), func(t *testing.T) {
			sys := buildFailingSystem(t, lostUpdates, model, 3000)
			// The walk at this bound needs more than one stride of nodes.
			if res := NewGenerator(sys, Options{RespectHardEdges: true, MaxWalkNodes: PollStride}).Generate(3, nil); !res.Capped {
				t.Fatal("bound-3 walk fits in one stride; pick a larger bound")
			}
			polls := 0
			g := NewGenerator(sys, Options{RespectHardEdges: true, Stop: func() bool { polls++; return true }})
			var nodesAtStop int
			res := g.Generate(3, func([]constraints.SAPRef, int) bool { nodesAtStop++; return true })
			if polls != 1 {
				t.Fatalf("Stop polled %d times, want 1", polls)
			}
			if !res.Capped {
				t.Fatal("a stopped generation must report Capped")
			}
			// Every yielded schedule is a leaf of the walk, so a walk cut
			// at its first poll yields fewer than PollStride of them.
			if nodesAtStop >= PollStride {
				t.Fatalf("generated %d schedules after Stop fired", nodesAtStop)
			}
		})
	}
}
