package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/clapd"
	"repro/internal/core"
)

func TestPercentileTenBeyond(t *testing.T) {
	cases := []struct{ n, p, rank, beyond int }{
		{100, 90, 90, 10},
		{99, 90, 90, 9},
		{101, 90, 91, 10},
		{20, 50, 10, 10},
		{19, 50, 10, 9},
		{1, 50, 1, 0},
		{0, 90, 1, 0},
	}
	for _, c := range cases {
		if c.n > 0 {
			if got := rank(c.n, c.p); got != c.rank {
				t.Errorf("rank(%d, %d) = %d, want %d", c.n, c.p, got, c.rank)
			}
		}
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, %d) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
	var xs []time.Duration
	for i := 100; i >= 1; i-- {
		xs = append(xs, time.Duration(i))
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %d, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %d, want 50", got)
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 50, End: 70}}, 70},
		{"overlapping", []span{{Start: 10, End: 30}, {Start: 20, End: 40}}, 70},
		{"nested", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"clipped", []span{{Start: -10, End: 10}, {Start: 90, End: 120}}, 80},
		{"outside", []span{{Start: 100, End: 150}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestUnattributedAndLayers(t *testing.T) {
	tr := &tracer{counts: map[string][]float64{}}
	// Op 0 spends 100ns, 60 of them in children; op 1 spends 50ns, all of
	// them in its one child. A probe's spans count towards layers but not
	// towards any op's unattributed share.
	r0 := tr.add(0, -1, "op", 0, 100)
	tr.add(0, r0, "compile", 0, 20)
	tr.add(0, r0, "reproduce", 20, 60)
	r1 := tr.add(1, -1, "op", 200, 250)
	tr.add(1, r1, "reproduce", 200, 250)
	p := tr.add(1, -1, "probe", 300, 400)
	tr.add(1, p, "compile", 300, 310)

	if got, want := tr.unattributedShare("op"), (0.4+0)/2; got != want {
		t.Errorf("unattributed share %v, want %v", got, want)
	}
	if got := tr.layerNS("reproduce"); got != 45 {
		t.Errorf("reproduce.ns %v, want 45", got)
	}
	if got := tr.layerNS("compile"); got != 15 {
		t.Errorf("compile.ns %v, want 15", got)
	}
	if got := tr.layerNS("replay"); got != 0 {
		t.Errorf("replay.ns of no calls %v, want 0", got)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.start(0, -1, "op"))
	nilTracer.count("x", 1)
}

func TestSolveDerivation(t *testing.T) {
	tr := &tracer{counts: map[string][]float64{}}
	r := tr.add(0, -1, "op", 0, 1000)
	tr.add(0, r, "reproduce", 0, 950)
	p := tr.add(0, -1, "probe", 1000, 1100)
	tr.add(0, p, "symexec", 1000, 1020)
	tr.add(0, p, "preprocess", 1020, 1030)
	tr.add(0, p, "cnf", 1030, 1040)
	v := layerValues(tr, newOutcome())
	if v["solve.ns"] != 920 {
		t.Errorf("solve.ns %v, want 950-20-10", v["solve.ns"])
	}
	if v["solve.share_min_pct"] != 92 {
		t.Errorf("solve share %v%%, want 92%%", v["solve.share_min_pct"])
	}
	if v["solve.over_cnf_x"] != 92 {
		t.Errorf("solve over cnf %vx, want 92x", v["solve.over_cnf_x"])
	}
}

func TestWastedSkipsTheWinner(t *testing.T) {
	attempts := []core.SolverAttempt{
		{Solver: "sequential", Outcome: "interrupted", Elapsed: 300},
		{Solver: "parallel", Outcome: "solved", Elapsed: 150},
		{Solver: "cnf", Outcome: "solved", Elapsed: 20},
	}
	if got := wasted(attempts); got != 320 {
		t.Errorf("wasted %v, want 320", got)
	}
}

func TestHuntBasesAreSeparated(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 1 << 40} {
		seen := map[int64]bool{}
		for k := 0; k < 64; k++ {
			b := huntBase(seed, k)
			if b != huntBase(seed, k) {
				t.Fatal("hunt base is not a function of (seed, k)")
			}
			if b%huntStride != 0 || b < 0 || seen[b] {
				t.Fatalf("seed %d k %d: base %d not a fresh multiple of the stride", seed, k, b)
			}
			seen[b] = true
		}
	}
	if huntBase(1, 0) == huntBase(2, 0) {
		t.Error("seeds 1 and 2 share their first hunt base")
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	gen := func(seed int64) []input {
		in, err := makeBundles([]string{"pbzip2", "pfscan"}, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		return shuffled(in, seed)
	}
	a, b, c := gen(7), gen(7), gen(8)
	if len(a) != 4 {
		t.Fatalf("%d inputs, want 4", len(a))
	}
	if inputSetDigest(a) != inputSetDigest(b) {
		t.Error("one seed made two input sets")
	}
	if inputSetDigest(a) == inputSetDigest(c) {
		t.Error("seeds 7 and 8 made the same input set")
	}
	seen := map[string]bool{}
	for _, x := range a {
		if seen[x.Digest] {
			t.Errorf("duplicate bundle %s", x.Digest)
		}
		seen[x.Digest] = true
		bu, err := clapd.DecodeBundle(x.Raw, 0)
		if err != nil {
			t.Fatal(err)
		}
		if bu.Digest() != x.Digest || bu.Solver != "" {
			t.Errorf("bundle %s: digest %s, solver %q", x.Digest, bu.Digest(), bu.Solver)
		}
	}
}

func TestEventWatcherSplitsLines(t *testing.T) {
	w := &eventWatcher{jobs: map[string]*jobEvents{}}
	lines := `{"event":"job.transition","digest":"d1","state":"queued"}
{"event":"job.transition","digest":"d1","from":"queued","state":"running","dur_ns":5}
{"event":"job.log","digest":"d1","msg":"x"}
{"event":"job.transition","digest":"d1","from":"running","state":"done","dur_ns":7}
`
	// The daemon writes whole lines, but a writer may be handed any split.
	for i := 0; i < len(lines); i += 10 {
		w.Write([]byte(lines[i:min(i+10, len(lines))]))
	}
	j, ok := w.job("d1")
	if !ok || j.state != "done" || j.queued != 5 || j.ran != 7 || j.terminalAt.IsZero() || w.bad != 0 {
		t.Errorf("job events %+v (ok %v, bad lines %d)", j, ok, w.bad)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

func TestGmeanWeighsProgramsEqually(t *testing.T) {
	// Program a: mean 2 over four ops; program b: mean 8 over one op. The
	// geometric mean of 2 and 8 is 4, whatever the op counts. Traced ops
	// do not count.
	samples := []opSample{
		{prog: "a", lat: 1, cpu: 10}, {prog: "a", lat: 3, cpu: 30}, {prog: "a", lat: 1, cpu: 10}, {prog: "a", lat: 3, cpu: 30},
		{prog: "b", lat: 8, cpu: 80},
		{prog: "b", lat: 1000, traced: true},
	}
	if got := gmean(samples, opWall); got != 4 {
		t.Errorf("wall gmean %v, want 4", got)
	}
	if got := gmean(samples, opCPU); got != 40 {
		t.Errorf("CPU gmean %v, want 40", got)
	}
	if got := gmean(nil, opWall); got != 0 {
		t.Errorf("gmean of nothing %v, want 0", got)
	}
}

func TestReportablePercentiles(t *testing.T) {
	xs := make([]time.Duration, 19)
	for i := range xs {
		xs[i] = time.Duration(i+1) * time.Millisecond
	}
	// 19 samples: 9 rank above the median, too few to report it.
	if v, n := reportable(xs, 50); v != nil || n != 9 {
		t.Errorf("p50 of 19: %v with %d beyond, want none with 9", v, n)
	}
	xs = append(xs, 20*time.Millisecond)
	if v, n := reportable(xs, 50); v == nil || *v != 10 || n != 10 {
		t.Errorf("p50 of 20: %v with %d beyond, want 10 ms with 10", v, n)
	}
	if v, n := reportable(xs, 90); v != nil || n != 2 {
		t.Errorf("p90 of 20: %v with %d beyond, want none with 2", v, n)
	}
}

func TestTracingOverheadComparesEachInputWithItself(t *testing.T) {
	// Input a is slow and traced only; b and c have both kinds of op, and
	// tracing makes them 1.21 and 1.0 times slower (1.1x on average).
	samples := []opSample{
		{input: "a", lat: 1000, traced: true},
		{input: "b", lat: 100}, {input: "b", lat: 121, traced: true},
		{input: "c", lat: 10}, {input: "c", lat: 10, traced: true},
	}
	if got := tracingOverhead(samples); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("overhead %v, want 0.1", got)
	}
	if got := tracingOverhead(samples[:1]); got != 0 {
		t.Errorf("overhead with no pair %v, want 0", got)
	}
}
