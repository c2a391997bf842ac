package core

import (
	"testing"

	"repro/internal/vm"
)

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

// spawnedMain spawns main from main. The spawned instance takes the else
// branch and races the initial instance on x, so the globals main touches
// are shared even though main is the program's only function.
const spawnedMain = `
int depth;
int x;
func main() {
	int d = depth;
	depth = d + 1;
	if (d == 0) {
		int h = spawn main();
		x = 1;
		join(h);
		int v = x;
		assert(v == 1, "spawned main wrote last");
	} else {
		x = 2;
	}
}
`

func TestSpawnedMainReproduces(t *testing.T) {
	prog, err := Compile(spawnedMain)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Record(prog, RecordOptions{Model: vm.SC, SeedLimit: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []SolverKind{Portfolio, CNF} {
		rep, err := Reproduce(rec, ReproduceOptions{Solver: kind})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !rep.Outcome.Reproduced {
			t.Fatalf("%v: bug not reproduced", kind)
		}
	}
}

func TestEndToEndFigure2(t *testing.T) {
	rep, err := ReproduceSource(figure2SC,
		RecordOptions{Model: vm.SC, SeedLimit: 3000},
		ReproduceOptions{},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Reproduced {
		t.Fatal("bug not reproduced")
	}
	if rep.Solution.Preemptions > 3 {
		t.Errorf("schedule has %d preemptions, expected <= 3", rep.Solution.Preemptions)
	}
	if rep.Stats.SAPs == 0 || rep.Stats.Clauses == 0 {
		t.Error("stats empty")
	}
	if rep.SymbolicTime() <= 0 || rep.SolveTime() <= 0 {
		t.Error("timings not collected")
	}
}

func TestEndToEndFigure2Parallel(t *testing.T) {
	rep, err := ReproduceSource(figure2SC,
		RecordOptions{Model: vm.SC, SeedLimit: 3000},
		ReproduceOptions{Solver: Parallel},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Reproduced {
		t.Fatal("bug not reproduced")
	}
	if rep.Parallel == nil || rep.Parallel.Generated == 0 {
		t.Error("parallel stats missing")
	}
	if rep.Parallel.Valid < 1 {
		t.Error("no valid schedules counted")
	}
}

func TestEndToEndPSO(t *testing.T) {
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
	for _, solverKind := range []SolverKind{Portfolio, Parallel} {
		rep, err := ReproduceSource(src,
			RecordOptions{Model: vm.PSO, SeedLimit: 3000},
			ReproduceOptions{Solver: solverKind},
		)
		if err != nil {
			t.Fatalf("solver %d: %v", solverKind, err)
		}
		if !rep.Outcome.Reproduced {
			t.Fatalf("solver %d: PSO bug not reproduced", solverKind)
		}
	}
}

// dekkerTSOSrc is Dekker's entry protocol without fences: correct under
// SC, broken by TSO store buffering.
const dekkerTSOSrc = `
int flag0;
int flag1;
int incrit;
int bad;
func t0() {
	flag0 = 1;
	if (flag1 == 0) {
		incrit = incrit + 1;
		if (incrit != 1) { bad = 1; }
		incrit = incrit - 1;
	}
}
func t1() {
	flag1 = 1;
	if (flag0 == 0) {
		incrit = incrit + 1;
		if (incrit != 1) { bad = 1; }
		incrit = incrit - 1;
	}
}
func main() {
	int h0;
	int h1;
	h0 = spawn t0();
	h1 = spawn t1();
	join(h0);
	join(h1);
	int b = bad;
	assert(b == 0, "mutual exclusion violated");
}
`

func TestEndToEndTSODekker(t *testing.T) {
	rep, err := ReproduceSource(dekkerTSOSrc,
		RecordOptions{Model: vm.TSO, SeedLimit: 3000},
		ReproduceOptions{},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Reproduced {
		t.Fatal("TSO Dekker bug not reproduced")
	}
}

// TestEndToEndLockedProgram reproduces two lock-serialized failures: an
// entry order between two workers, and the ordinary outcome of three
// increments (main's among them) under one mutex.
func TestEndToEndLockedProgram(t *testing.T) {
	for name, src := range map[string]string{
		"entry order": `
int c;
int order;
mutex m;
func worker(id) {
	lock(m);
	int t = c;
	c = t + 1;
	if (order == 0) { order = id; }
	unlock(m);
}
func main() {
	int h1;
	int h2;
	h1 = spawn worker(1);
	h2 = spawn worker(2);
	join(h1);
	join(h2);
	int o = order;
	assert(o != 2, "worker 2 entered first");
}
`,
		"three increments": `
int c;
mutex m;
func worker() {
	lock(m);
	int t = c;
	c = t + 1;
	unlock(m);
}
func main() {
	int h1;
	int h2;
	h1 = spawn worker();
	h2 = spawn worker();
	lock(m);
	int t = c;
	c = t + 1;
	unlock(m);
	join(h1);
	join(h2);
	int v = c;
	assert(v != 3, "all three increments landed");
}
`,
	} {
		rep, err := ReproduceSource(src,
			RecordOptions{Model: vm.SC, SeedLimit: 3000},
			ReproduceOptions{},
		)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Outcome.Reproduced {
			t.Fatalf("%s: lock-serialized bug not reproduced", name)
		}
	}
}

func TestEndToEndCondVar(t *testing.T) {
	src := `
int stage;
mutex m;
cond c;
func waiter() {
	lock(m);
	while (stage == 0) {
		wait(c, m);
	}
	int s = stage;
	unlock(m);
	assert(s == 2, "stage jumped");
}
func main() {
	int h;
	h = spawn waiter();
	yield();
	lock(m);
	stage = 1;
	signal(c);
	unlock(m);
	join(h);
}
`
	rep, err := ReproduceSource(src,
		RecordOptions{Model: vm.SC, SeedLimit: 2000},
		ReproduceOptions{},
	)
	if err != nil {
		t.Skipf("condvar bug did not trigger or solve: %v", err)
	}
	if !rep.Outcome.Reproduced {
		t.Fatal("condvar bug not reproduced")
	}
}

func TestRecordingRequiresFailure(t *testing.T) {
	prog, err := Compile(`func main() {}`)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecordSeed(prog, 1, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Analyze(); err == nil {
		t.Fatal("Analyze must reject a clean recording")
	}
	if _, err := Record(prog, RecordOptions{SeedLimit: 3}); err == nil {
		t.Fatal("Record must report when no seed fails")
	}
}

func TestLogSizeReported(t *testing.T) {
	rep, err := ReproduceSource(figure2SC,
		RecordOptions{Model: vm.SC, SeedLimit: 3000},
		ReproduceOptions{SkipReplay: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recording.LogSize() <= 0 {
		t.Error("log size must be positive")
	}
	if rep.Outcome != nil {
		t.Error("SkipReplay must skip the replay")
	}
}
