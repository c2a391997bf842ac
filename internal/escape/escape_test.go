package escape

import (
	"testing"

	"repro/internal/ir"
)

func analyze(t *testing.T, src string) (*ir.Program, *Result) {
	t.Helper()
	prog, err := ir.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog, Analyze(prog)
}

func sharedNames(prog *ir.Program, res *Result) map[string]bool {
	m := map[string]bool{}
	for g, s := range res.Shared {
		if s {
			m[prog.Globals[g].Name] = true
		}
	}
	return m
}

func TestMainOnlyGlobalsNotShared(t *testing.T) {
	prog, res := analyze(t, `
int a;
int b;
func main() {
	a = 1;
	b = a + 1;
}
`)
	if got := sharedNames(prog, res); len(got) != 0 {
		t.Fatalf("no threads spawned, but shared = %v", got)
	}
}

func TestGlobalSharedBetweenMainAndChild(t *testing.T) {
	prog, res := analyze(t, `
int shared;
int mainonly;
int childonly;
func child() {
	shared = 1;
	childonly = 2;
}
func main() {
	int h;
	h = spawn child();
	mainonly = 3;
	shared = shared + 1;
	join(h);
}
`)
	got := sharedNames(prog, res)
	if !got["shared"] {
		t.Error("shared must be marked shared")
	}
	if got["mainonly"] {
		t.Error("mainonly must not be shared")
	}
	if got["childonly"] {
		t.Error("childonly accessed by a single-instance thread must not be shared")
	}
}

func TestSpawnTwiceMakesChildGlobalsShared(t *testing.T) {
	prog, res := analyze(t, `
int counter;
func worker() {
	counter = counter + 1;
}
func main() {
	int h1;
	int h2;
	h1 = spawn worker();
	h2 = spawn worker();
	join(h1);
	join(h2);
}
`)
	if !sharedNames(prog, res)["counter"] {
		t.Error("counter accessed by two worker instances must be shared")
	}
}

func TestSpawnInLoopIsMany(t *testing.T) {
	prog, res := analyze(t, `
int counter;
func worker() {
	counter = counter + 1;
}
func main() {
	int i;
	for (i = 0; i < 4; i = i + 1) {
		int h;
		h = spawn worker();
	}
}
`)
	if !sharedNames(prog, res)["counter"] {
		t.Error("spawn in loop must make worker's globals shared")
	}
}

func TestSharingThroughHelperCalls(t *testing.T) {
	prog, res := analyze(t, `
int deep;
func helper() {
	deep = deep + 1;
}
func worker() {
	helper();
}
func main() {
	int h;
	h = spawn worker();
	helper();
	join(h);
}
`)
	if !sharedNames(prog, res)["deep"] {
		t.Error("global reached via calls from two roots must be shared")
	}
}

func TestRecursionTerminates(t *testing.T) {
	prog, res := analyze(t, `
int x;
func rec(n) {
	if (n > 0) {
		x = x + 1;
		rec(n - 1);
	}
}
func main() {
	rec(5);
}
`)
	if sharedNames(prog, res)["x"] {
		t.Error("recursive single-thread access is not shared")
	}
	_ = prog
}

func TestNestedSpawns(t *testing.T) {
	prog, res := analyze(t, `
int g;
func grandchild() {
	g = g + 1;
}
func child() {
	int h;
	h = spawn grandchild();
	join(h);
}
func main() {
	int h1;
	int h2;
	h1 = spawn child();
	h2 = spawn child();
	join(h1);
	join(h2);
}
`)
	// child runs twice, so grandchild is spawned from two thread
	// instances: g is shared.
	if !sharedNames(prog, res)["g"] {
		t.Error("grandchild spawned from a many-instance parent must make g shared")
	}
}

func TestSingleNestedSpawnNotShared(t *testing.T) {
	prog, res := analyze(t, `
int g;
func grandchild() {
	g = g + 1;
}
func child() {
	int h;
	h = spawn grandchild();
	join(h);
}
func main() {
	int h1;
	h1 = spawn child();
	join(h1);
}
`)
	if sharedNames(prog, res)["g"] {
		t.Error("one instance of grandchild only; g must not be shared")
	}
}

func TestArraysShareLikeScalars(t *testing.T) {
	prog, res := analyze(t, `
int buf[8];
func producer() {
	buf[0] = 1;
}
func main() {
	int h;
	h = spawn producer();
	int v = buf[1];
	print(v);
	join(h);
}
`)
	if !sharedNames(prog, res)["buf"] {
		t.Error("array accessed by two threads must be shared")
	}
}

func TestSharedCountAndAccessedBy(t *testing.T) {
	prog, res := analyze(t, `
int a;
int b;
func worker() { a = 1; }
func main() {
	int h;
	h = spawn worker();
	a = 2;
	b = 3;
	join(h);
}
`)
	if res.SharedCount() != 1 {
		t.Fatalf("SharedCount = %d, want 1", res.SharedCount())
	}
	aID := prog.GlobalByName("a")
	if len(res.AccessedBy[aID]) != 2 {
		t.Errorf("a accessed by %v, want 2 functions", res.AccessedBy[aID])
	}
	if !res.IsShared(aID) {
		t.Error("IsShared(a) must be true")
	}
}

func TestAccessedBySorted(t *testing.T) {
	// Many functions touching the same global: the diagnostic lists must
	// come out in ascending FuncID order on every run.
	prog, res := analyze(t, `
int x;
func f1() { x = 1; }
func f2() { x = 2; }
func f3() { x = 3; }
func f4() { x = 4; }
func f5() { x = 5; }
func main() {
	int h1 = spawn f1();
	int h2 = spawn f2();
	int h3 = spawn f3();
	int h4 = spawn f4();
	int h5 = spawn f5();
	join(h1); join(h2); join(h3); join(h4); join(h5);
	x = 0;
}
`)
	fns := res.AccessedBy[prog.GlobalByName("x")]
	if len(fns) != 6 {
		t.Fatalf("x accessed by %v, want 6 functions", fns)
	}
	for i := 1; i < len(fns); i++ {
		if fns[i-1] >= fns[i] {
			t.Fatalf("AccessedBy not sorted ascending: %v", fns)
		}
	}
}

func TestSpawnedMainCountsInitialInstance(t *testing.T) {
	// main spawns itself once: the initial instance and the spawned one
	// both run main's body, so every global main touches is shared.
	prog, res := analyze(t, `
int depth;
int x;
func main() {
	int d = depth;
	depth = d + 1;
	if (d == 0) {
		int h = spawn main();
		x = 1;
		join(h);
	} else {
		x = 2;
	}
}
`)
	if got := res.Roots[prog.MainID]; got != MultMany {
		t.Errorf("main's root multiplicity = %d, want MultMany", got)
	}
	if got := sharedNames(prog, res); !got["depth"] || !got["x"] {
		t.Errorf("shared = %v, want depth and x", got)
	}
}
