package vm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/trace"
)

// recordRun executes src with CLAP path recording under the given scheduler
// and also captures the ground-truth block trace per thread via a shadow
// observer for comparison.
func recordRun(t *testing.T, src string, sched Scheduler, model MemModel) (*ir.Program, *Result, *PathRecorder) {
	t.Helper()
	prog := compile(t, src)
	rec, err := NewPathRecorder(prog)
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(prog, Config{Model: model, Sched: sched, PathRecorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	return prog, res, rec
}

func TestPathLogCompleteRun(t *testing.T) {
	_, res, rec := recordRun(t, `
int x;
func helper(v) {
	int i;
	for (i = 0; i < v; i = i + 1) {
		x = x + 1;
	}
}
func main() {
	helper(3);
	helper(0);
}
`, &RoundRobinScheduler{}, SC)
	if res.Failure != nil {
		t.Fatalf("failure: %v", res.Failure)
	}
	log := rec.Log
	if len(log.Threads) != 1 {
		t.Fatalf("threads = %d, want 1", len(log.Threads))
	}
	evs := log.Threads[0].Events
	// Stream must nest: main enter, helper enter/exit twice, main exit.
	var depth, maxDepth int
	enters := 0
	for _, e := range evs {
		switch e.Kind {
		case trace.EvEnter:
			depth++
			enters++
			if depth > maxDepth {
				maxDepth = depth
			}
		case trace.EvExit:
			depth--
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced enter/exit: depth %d at end", depth)
	}
	if enters != 3 {
		t.Fatalf("enters = %d, want 3 (main + 2 helper calls)", enters)
	}
	if maxDepth != 2 {
		t.Fatalf("max depth = %d, want 2", maxDepth)
	}
	// Round-trip the encoding.
	decoded, err := trace.DecodePathLog(log.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(decoded.Threads[0].Events) != fmt.Sprint(evs) {
		t.Fatal("encode/decode changed the event stream")
	}
}

func TestPathLogMultiThread(t *testing.T) {
	_, res, rec := recordRun(t, `
int x;
func child(n) {
	int i;
	for (i = 0; i < n; i = i + 1) {
		x = x + 1;
	}
}
func main() {
	int h1;
	int h2;
	h1 = spawn child(2);
	h2 = spawn child(4);
	join(h1);
	join(h2);
}
`, NewRandomScheduler(3), SC)
	if res.Failure != nil {
		t.Fatalf("failure: %v", res.Failure)
	}
	log := rec.Log
	if len(log.Threads) != 3 {
		t.Fatalf("threads = %d, want 3", len(log.Threads))
	}
	if log.Threads[0].Parent != -1 {
		t.Errorf("main parent = %d, want -1", log.Threads[0].Parent)
	}
	if log.Threads[1].Parent != 0 || log.Threads[1].Index != 0 {
		t.Errorf("child1 meta = (%d,%d), want (0,0)", log.Threads[1].Parent, log.Threads[1].Index)
	}
	if log.Threads[2].Parent != 0 || log.Threads[2].Index != 1 {
		t.Errorf("child2 meta = (%d,%d), want (0,1)", log.Threads[2].Parent, log.Threads[2].Index)
	}
}

func TestPathLogPartialOnFailure(t *testing.T) {
	// The failing thread is cut mid-loop; its log must end with a partial
	// event carrying a cut position, and every live thread's log must be
	// closed by partial events.
	_, res, rec := recordRun(t, `
int x;
func spinner() {
	int i;
	for (i = 0; i < 1000000; i = i + 1) {
		x = x + 1;
	}
}
func main() {
	int h;
	h = spawn spinner();
	int v = x;
	yield();
	v = x;
	assert(v == -1, "trigger");
}
`, NewRandomScheduler(1), SC)
	if res.Failure == nil || res.Failure.Kind != FailAssert {
		t.Fatalf("failure = %v, want assert", res.Failure)
	}
	log := rec.Log
	for _, tl := range log.Threads {
		if len(tl.Events) == 0 {
			continue
		}
		last := tl.Events[len(tl.Events)-1]
		if last.Kind != trace.EvPartial {
			t.Errorf("thread %d log must end with a partial event, got %s", tl.Thread, last.Kind)
		}
		partials := 0
		for _, e := range tl.Events {
			if e.Kind == trace.EvPartial {
				partials++
			}
		}
		if len(tl.Cuts) != partials {
			t.Errorf("thread %d: %d cuts for %d partial events", tl.Thread, len(tl.Cuts), partials)
		}
	}
	// Round-trip with cuts.
	decoded, err := trace.DecodePathLog(log.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for i := range log.Threads {
		if fmt.Sprint(decoded.Threads[i].Cuts) != fmt.Sprint(log.Threads[i].Cuts) {
			t.Fatal("cuts lost in encoding")
		}
	}
}

func TestLeapRecorderOrders(t *testing.T) {
	prog := compile(t, `
int x;
int y;
func child() {
	x = 1;
	y = 2;
}
func main() {
	int h;
	h = spawn child();
	join(h);
	int v = x;
	print(v);
}
`)
	leap := NewLeapRecorder(prog)
	v, err := New(prog, Config{Sched: &RoundRobinScheduler{}, LeapRecorder: leap})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	// x (var 0) accessed by t1 (write) then t0 (read); y (var 1) by t1.
	if fmt.Sprint(leap.Log.Vectors[0]) != "[1 0]" {
		t.Errorf("x access vector = %v, want [1 0]", leap.Log.Vectors[0])
	}
	if fmt.Sprint(leap.Log.Vectors[1]) != "[1]" {
		t.Errorf("y access vector = %v, want [1]", leap.Log.Vectors[1])
	}
	if leap.Log.AccessCount() != 3 {
		t.Errorf("access count = %d, want 3", leap.Log.AccessCount())
	}
}

func TestClapLogSmallerThanLeap(t *testing.T) {
	// A loop with many shared accesses but simple control flow: CLAP's log
	// (a few path ids) must be far smaller than LEAP's (one entry per
	// access) — the paper's 72–97.7% space reduction.
	src := `
int c;
func worker() {
	int i;
	for (i = 0; i < 500; i = i + 1) {
		int t = c;
		c = t + 1;
	}
}
func main() {
	int h1;
	int h2;
	h1 = spawn worker();
	h2 = spawn worker();
	join(h1);
	join(h2);
}
`
	prog := compile(t, src)
	clap, err := NewPathRecorder(prog)
	if err != nil {
		t.Fatal(err)
	}
	leap := NewLeapRecorder(prog)
	v, err := New(prog, Config{Sched: NewRandomScheduler(5), PathRecorder: clap, LeapRecorder: leap})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	clapSize := clap.Log.Size()
	leapSize := leap.Log.Size()
	if clapSize*2 >= leapSize {
		t.Fatalf("CLAP log (%dB) not substantially smaller than LEAP log (%dB)", clapSize, leapSize)
	}
}

func TestStoreBufferUnit(t *testing.T) {
	mem := make([]int64, 4)
	b := newStoreBuffer(TSO)
	if !b.empty() {
		t.Fatal("new buffer must be empty")
	}
	b.push(1, 10)
	b.push(2, 20)
	b.push(1, 11)
	if v, ok := b.lookup(1); !ok || v != 11 {
		t.Fatalf("lookup(1) = %d,%v; want 11 (youngest wins)", v, ok)
	}
	if got := b.drainableAddrs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("TSO drainable = %v, want [1] (head only)", got)
	}
	if _, ok := b.drain(2, mem); ok {
		t.Fatal("TSO must not drain out of order")
	}
	if v, ok := b.drain(1, mem); !ok || v != 10 {
		t.Fatalf("drain head = %d,%v; want 10", v, ok)
	}
	if mem[1] != 10 {
		t.Fatal("drain must write memory")
	}
	b.drainAll(mem)
	if mem[1] != 11 || mem[2] != 20 || !b.empty() {
		t.Fatalf("drainAll wrong: mem=%v", mem)
	}

	p := newStoreBuffer(PSO)
	p.push(1, 1)
	p.push(2, 2)
	p.push(1, 3)
	if got := p.drainableAddrs(); fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("PSO drainable = %v, want [1 2]", got)
	}
	if v, ok := p.drain(2, mem); !ok || v != 2 {
		t.Fatalf("PSO drain(2) = %d,%v", v, ok)
	}
	if v, ok := p.drain(1, mem); !ok || v != 1 {
		t.Fatalf("PSO drain(1) = %d,%v; want oldest-per-address", v, ok)
	}
	if p.pending() != 1 {
		t.Fatalf("pending = %d, want 1", p.pending())
	}
	// The PSO list holds every buffered address once, ascending, however
	// the stores were issued, and a shorter list after a longer one keeps
	// nothing of it.
	for _, tc := range []struct {
		push []int
		want string
	}{
		{[]int{3, 1, 3, 0, 1}, "[0 1 3]"},
		{[]int{3, 2, 1, 0}, "[0 1 2 3]"},
		{[]int{2, 2, 2}, "[2]"},
	} {
		p.drainAll(mem)
		for _, a := range tc.push {
			p.push(a, int64(a))
		}
		if got := fmt.Sprint(p.drainableAddrs()); got != tc.want {
			t.Errorf("PSO after pushes to %v: drainable = %s, want %s", tc.push, got, tc.want)
		}
	}
}

func TestModelString(t *testing.T) {
	if SC.String() != "SC" || TSO.String() != "TSO" || PSO.String() != "PSO" {
		t.Error("model names wrong")
	}
	if !strings.Contains(MemModel(9).String(), "model") {
		t.Error("unknown model must render")
	}
}

func TestFailureKindString(t *testing.T) {
	if FailAssert.String() != "assertion violation" ||
		FailDeadlock.String() != "deadlock" ||
		FailRuntime.String() != "runtime error" {
		t.Error("failure kind names wrong")
	}
}

func TestActionAndEventStrings(t *testing.T) {
	if (Action{Kind: ActRun, Thread: 2}).String() != "run(t2)" {
		t.Error("run action renders wrong")
	}
	if (Action{Kind: ActDrain, Thread: 1, Addr: 3}).String() != "drain(t1,@3)" {
		t.Error("drain action renders wrong")
	}
	ev := VisibleEvent{Kind: EvRead, Thread: 1, Addr: 2, Value: 9}
	if ev.String() != "t1:read@2=9" {
		t.Errorf("event renders %q", ev.String())
	}
}
