package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/oracle"
	"repro/internal/vm"
)

// TestPropertyPipelineOnRandomPrograms is the repository's end-to-end
// property: for random programs of every oracle.Program shape whose bug
// triggers, the full pipeline (record → analyze → solve → replay)
// reproduces the failure, with both solving strategies.
func TestPropertyPipelineOnRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	reproduced := 0
	for trial := 0; trial < 25; trial++ {
		src, model := oracle.Program(r, oracle.Shapes[trial%len(oracle.Shapes)])
		prog, err := Compile(src)
		if err != nil {
			t.Fatalf("trial %d: generated program does not compile: %v\n%s", trial, err, src)
		}
		rec, err := Record(prog, RecordOptions{Model: model, SeedLimit: 300})
		if err != nil {
			continue // this variant never failed
		}
		for _, kind := range []SolverKind{Portfolio, Parallel} {
			rep, err := Reproduce(rec, ReproduceOptions{Solver: kind})
			if err != nil {
				t.Fatalf("trial %d solver %d: %v\n%s", trial, kind, err, src)
			}
			if !rep.Outcome.Reproduced {
				t.Fatalf("trial %d solver %d: not reproduced\n%s", trial, kind, src)
			}
		}
		reproduced++
	}
	if reproduced < 5 {
		t.Fatalf("only %d random programs produced reproducible failures; generator too tame", reproduced)
	}
	t.Logf("reproduced %d/25 random programs with both solvers", reproduced)
}

// TestPropertyRelaxedPipelineOnStoreBufferPrograms exercises the pipeline
// under TSO with randomized flag-based programs in the Dekker family.
func TestPropertyRelaxedPipelineOnStoreBufferPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	reproduced := 0
	for trial := 0; trial < 10; trial++ {
		extra := r.Intn(3)
		src := fmt.Sprintf(`
int flag0;
int flag1;
int bad;
int pad%d;
func t0() {
	flag0 = 1;
	if (flag1 == 0) {
		int b = bad;
		bad = b + 1;
		bad = bad - 1;
		if (flag1 == 1) { bad = 7; }
	}
}
func t1() {
	flag1 = 1;
	if (flag0 == 0) {
		if (flag1 != 1) { bad = 9; }
		int p = pad%d;
		pad%d = p + %d;
	}
}
func main() {
	int h0 = spawn t0();
	int h1 = spawn t1();
	join(h0);
	join(h1);
	int f0 = flag0;
	int f1 = flag1;
	assert(f0 == 0 || f1 == 0 || bad != 0 || pad%d == 0, "both passed the gate");
}
`, extra, extra, extra, extra+1, extra)
		prog, err := Compile(src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rec, err := Record(prog, RecordOptions{Model: vm.TSO, SeedLimit: 800})
		if err != nil {
			continue
		}
		rep, err := Reproduce(rec, ReproduceOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		if !rep.Outcome.Reproduced {
			t.Fatalf("trial %d: not reproduced", trial)
		}
		reproduced++
	}
	t.Logf("reproduced %d/10 relaxed-memory variants", reproduced)
}
