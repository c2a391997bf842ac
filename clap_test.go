package repro_test

import (
	"strings"
	"testing"

	repro "repro"
)

// TestFacadeEndToEnd drives the public API exactly as the README shows.
func TestFacadeEndToEnd(t *testing.T) {
	const src = `
int x;
func child() {
	int t = x;
	x = t + 1;
}
func main() {
	int h1 = spawn child();
	int h2 = spawn child();
	join(h1);
	join(h2);
	int v = x;
	assert(v == 2, "lost update");
}
`
	prog, err := repro.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := repro.Record(prog, repro.RecordOptions{Model: repro.SC, SeedLimit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repro.Reproduce(rec, repro.ReproduceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Reproduced {
		t.Fatal("facade pipeline did not reproduce the bug")
	}
	if rep.Solution.Preemptions < 0 || rep.Stats.SAPs == 0 {
		t.Error("facade result incomplete")
	}
	// The zero SolverKind is the product path.
	port, err := repro.Reproduce(rec, repro.ReproduceOptions{Solver: repro.Portfolio})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := trailOf(rep.Attempts), trailOf(port.Attempts); got != want {
		t.Errorf("zero-value options ran %s, Portfolio %s", got, want)
	}
}

// trailOf renders an attempt trail as "solver outcome" pairs.
func trailOf(attempts []repro.SolverAttempt) string {
	parts := make([]string, len(attempts))
	for i, a := range attempts {
		parts[i] = a.Solver + " " + a.Outcome
	}
	return strings.Join(parts, ", ")
}

// TestFacadeOneCall drives the single-call API.
func TestFacadeOneCall(t *testing.T) {
	const src = `
int y;
func w() { y = 1; }
func main() {
	int h = spawn w();
	int v = y;
	join(h);
	assert(v == 0, "writer raced ahead");
}
`
	rep, err := repro.ReproduceSource(src,
		repro.RecordOptions{Model: repro.SC, SeedLimit: 2000},
		repro.ReproduceOptions{Solver: repro.Parallel})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Reproduced {
		t.Fatal("not reproduced")
	}
}
