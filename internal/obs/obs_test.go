package obs

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	tr := NewTrace("root")
	a := tr.Root().Start("a")
	b := a.Start("b")
	b.SetAttr("outcome", "solved")
	b.SetInt("bound", 3)
	b.End()
	a.End()
	a.End() // idempotent: the first End wins
	d := a.Duration()
	time.Sleep(time.Millisecond)
	if a.Duration() != d {
		t.Error("ended span's duration moved")
	}
	if got := tr.Root().Find("b"); got == nil || got.Attr("outcome") != "solved" || got.Attr("bound") != "3" {
		t.Errorf("Find(b) = %+v", got)
	}
	if tr.Root().Find("nope") != nil {
		t.Error("Find invented a span")
	}
	var names []string
	tr.Root().Walk(func(sp *Span, depth int) { names = append(names, sp.Name) })
	if want := []string{"root", "a", "b"}; !reflect.DeepEqual(names, want) {
		t.Errorf("walk order = %v, want %v", names, want)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	var sp *Span
	var reg *Registry
	sp = tr.Root().Start("x") // all no-ops
	sp.End()
	sp.SetAttr("k", "v")
	if sp.Duration() != 0 || sp.Find("x") != nil || sp.Attr("k") != "" {
		t.Error("nil span not inert")
	}
	reg.Add("a", 1)
	reg.Set("b", 2)
	if reg.Get("a") != 0 || reg.Names() != nil {
		t.Error("nil registry not inert")
	}
	if tr.Report() != nil || tr.Reg() != nil {
		t.Error("nil trace not inert")
	}
	StartHeartbeat(&bytes.Buffer{}, nil, HeartbeatOptions{}).Stop() // no-op
}

func TestRegistryTypedAndSorted(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("record.events")
	c.Add(5)
	c.Add(7)
	g := reg.Gauge("solver.par.bound")
	g.Set(2)
	g.Set(4)
	if v := reg.Get("record.events"); v != 12 {
		t.Errorf("counter = %d, want 12", v)
	}
	if v := reg.Get("solver.par.bound"); v != 4 {
		t.Errorf("gauge = %d, want 4", v)
	}
	if k, _ := reg.KindOf("record.events"); k != KindCounter {
		t.Error("counter kind lost")
	}
	if k, _ := reg.KindOf("solver.par.bound"); k != KindGauge {
		t.Error("gauge kind lost")
	}
	reg.Add("a.z", 1)
	reg.Add("a.a", 1)
	names := reg.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	cs, gs := reg.Snapshot()
	if cs["record.events"] != 12 || gs["solver.par.bound"] != 4 {
		t.Errorf("snapshot split wrong: %v %v", cs, gs)
	}
	if _, ok := cs["solver.par.bound"]; ok {
		t.Error("gauge leaked into counters")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Add("c", 1)
				reg.Set("g", int64(j))
				reg.Lookup("c")
			}
		}()
	}
	wg.Wait()
	if v := reg.Get("c"); v != 8000 {
		t.Errorf("c = %d, want 8000", v)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTrace("root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.Root().Start("child")
			sp.SetAttr("k", "v")
			sp.End()
		}()
	}
	wg.Wait()
	rep := tr.Report()
	if n := len(rep.Root.Children); n != 8 {
		t.Errorf("children = %d, want 8", n)
	}
}

// TestReportRoundTrip is the -metrics-json schema pin: encode → decode
// must reproduce the identical span tree and counter maps.
func TestReportRoundTrip(t *testing.T) {
	tr := NewTrace("clap")
	rec := tr.Root().Start("record")
	lvl := rec.Start("record.level")
	lvl.SetInt("chaos", 15)
	lvl.End()
	rec.End()
	solve := tr.Root().Start("solve")
	att := solve.Start("solve.enumerate")
	att.SetAttr("outcome", "solved")
	att.End()
	solve.End()
	tr.Reg().Counter("record.events").Add(42)
	tr.Reg().Gauge("solver.par.bound").Set(3)

	rep := tr.Report()
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("round trip drift:\n got %+v\nwant %+v", back, rep)
	}
	// A second encode of the decoded report must be byte-identical: the
	// report is a stable artifact, fit for diffing.
	data2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("re-encoded report differs")
	}
}

func TestDecodeReportRejectsGarbage(t *testing.T) {
	if _, err := DecodeReport([]byte("{")); err == nil {
		t.Error("accepted truncated JSON")
	}
	if _, err := DecodeReport([]byte(`{"schema":"other/9","root":{"name":"x"}}`)); err == nil {
		t.Error("accepted unknown schema")
	}
	if _, err := DecodeReport([]byte(`{"schema":"` + ReportSchema + `"}`)); err == nil {
		t.Error("accepted report without span tree")
	}
}

func TestRenderDeterministic(t *testing.T) {
	tr := NewTrace("clap")
	sp := tr.Root().Start("solve")
	sp.SetAttr("b", "2")
	sp.SetAttr("a", "1")
	sp.End()
	tr.Reg().Add("z.count", 1)
	tr.Reg().Add("a.count", 2)
	tr.Reg().Set("m.gauge", 3)
	rep := tr.Report()
	var one, two bytes.Buffer
	rep.Render(&one)
	rep.Render(&two)
	if one.String() != two.String() {
		t.Error("Render is nondeterministic")
	}
	out := one.String()
	for _, want := range []string{"clap", "solve", "a=1 b=2", "a.count", "z.count", "m.gauge"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestStableNamesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range StableNames {
		if seen[n] {
			t.Errorf("duplicate stable name %q", n)
		}
		seen[n] = true
		if strings.ToLower(n) != n || strings.ContainsAny(n, " \t/") {
			t.Errorf("stable name %q not dotted-lowercase", n)
		}
		if !IsStable(n) {
			t.Errorf("IsStable(%q) = false", n)
		}
	}
	if IsStable("not.a.name") {
		t.Error("IsStable accepted an unknown name")
	}
	for _, n := range append(append([]string{}, ProgressGauges...), ProgressRates...) {
		if !IsStable(n) {
			t.Errorf("progress metric %q not in the stable list", n)
		}
	}
}

func TestHeartbeat(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("solver.par.bound").Set(2)
	reg.Set("solver.par.generated", 1000)
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	h := StartHeartbeat(w, reg, HeartbeatOptions{Interval: 5 * time.Millisecond})
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		s := buf.String()
		mu.Unlock()
		if strings.Contains(s, "solver.par.bound=2") && strings.Contains(s, "solver.par.generated/s=") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no heartbeat line in time; got %q", s)
		}
		time.Sleep(time.Millisecond)
	}
	h.Stop()
	h.Stop() // idempotent
	mu.Lock()
	n := buf.Len()
	mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	if buf.Len() != n {
		t.Error("heartbeat wrote after Stop")
	}
	mu.Unlock()
}

func TestHeartbeatStopsWithContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	reg := NewRegistry()
	h := StartHeartbeat(&bytes.Buffer{}, reg, HeartbeatOptions{Interval: time.Millisecond, Ctx: ctx})
	cancel()
	done := make(chan struct{})
	go func() { h.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("heartbeat did not stop with its context")
	}
}

func TestHeartbeatStopFinal(t *testing.T) {
	tr := NewTrace("clap")
	tr.Root().Start("record").End()
	tr.Root().Start("solve").End()

	for _, outcome := range []string{"ok", "error"} {
		var buf bytes.Buffer
		h := StartHeartbeat(&buf, tr.Reg(), HeartbeatOptions{Interval: time.Hour})
		h.StopFinal(tr, outcome)
		out := buf.String()
		if !strings.Contains(out, "obs: done in ") ||
			!strings.Contains(out, "phase=solve") ||
			!strings.Contains(out, "outcome="+outcome) {
			t.Errorf("outcome %q: summary line missing pieces: %q", outcome, out)
		}
		if strings.Count(out, "obs: done") != 1 {
			t.Errorf("outcome %q: want exactly one summary line, got %q", outcome, out)
		}
	}

	// Nil heartbeat (a -progress run that never started one): no output,
	// no panic.
	var nilH *Heartbeat
	nilH.StopFinal(tr, "ok")

	// A trace with no phases yet reports phase=none.
	var buf bytes.Buffer
	h := StartHeartbeat(&buf, NewRegistry(), HeartbeatOptions{Interval: time.Hour})
	h.StopFinal(NewTrace("clap"), "error")
	if !strings.Contains(buf.String(), "phase=none") {
		t.Errorf("empty trace should report phase=none: %q", buf.String())
	}
}

// TestHeartbeatNoGoroutineLeak pins the satellite requirement that no
// heartbeat goroutine outlives the run: after StopFinal returns, the
// ticker goroutines are gone.
func TestHeartbeatNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := NewTrace("clap")
	hs := make([]*Heartbeat, 0, 8)
	for i := 0; i < 8; i++ {
		hs = append(hs, StartHeartbeat(&bytes.Buffer{}, tr.Reg(), HeartbeatOptions{Interval: time.Millisecond}))
	}
	for _, h := range hs {
		h.StopFinal(tr, "ok")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat goroutines outlived StopFinal: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
