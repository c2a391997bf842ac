// Property tests for the constraint preprocessing pass: the preprocessed
// system must accept exactly the same schedules as the unsimplified one,
// pruned candidates must never be any accepted schedule's last writer,
// and every backend must still solve the preprocessed system to a
// schedule the ORIGINAL system validates. Trace diversity comes from the
// seeded fault-injection corrupter: mutated logs are salvaged and
// analyzed, and every analyzable mutant joins the property check.
package core

import (
	"testing"

	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/faultinject"
	"repro/internal/schedule"
	"repro/internal/trace"
	"repro/internal/vm"
)

// lockShadowSrc exercises the lock-region dominance rule: the x=1 write
// is shadowed by x=2 inside the worker's lock region, so main's locked
// read of x can never observe it.
const lockShadowSrc = `
int x;
int y;
mutex m;
func worker() {
	lock(m);
	x = 1;
	x = 2;
	unlock(m);
	y = 1;
}
func main() {
	int h = spawn worker();
	lock(m);
	int v = x;
	unlock(m);
	int u = y;
	join(h);
	assert(u + v != 1, "read raced the unprotected flag");
}
`

// condPruneSrc exercises wait-candidate pruning: the first signal
// precedes the waiter's fork, so it can never fall inside the wait's
// (begin, end) window.
const condPruneSrc = `
int done;
mutex m;
cond c;
func waiter() {
	lock(m);
	wait(c, m);
	done = 1;
	unlock(m);
}
func main() {
	signal(c);
	int h = spawn waiter();
	signal(c);
	join(h);
	int v = done;
	assert(v == 0, "waiter woke and finished");
}
`

// mutexPruneSrc exercises the mutual-exclusion rule: main's locked read
// of x can never observe the worker's locked x=1, because whichever way
// the two m-regions serialize, main's own x=2 either shadows it or the
// read precedes it. The bug itself lives on the unprotected flag y.
const mutexPruneSrc = `
int x;
int y;
mutex m;
func worker() {
	lock(m);
	x = 1;
	unlock(m);
	y = 1;
}
func main() {
	int h = spawn worker();
	y = 2;
	lock(m);
	x = 2;
	int v = x;
	unlock(m);
	int u = y;
	join(h);
	assert(u == 2, "worker's flag write raced past main's");
}
`

// symIdxSrc keeps addresses symbolic (a racy index feeds an array read),
// checking the pass stays conservative when sameAddr cannot decide.
const symIdxSrc = `
int idx;
int a[2];
func worker() {
	idx = 1;
	a[1] = 5;
}
func main() {
	int h = spawn worker();
	int j = idx;
	int v = a[j];
	join(h);
	assert(v == 0, "saw write through racy index");
}
`

func recordSrc(t *testing.T, src string, model vm.MemModel) *Recording {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Record(prog, RecordOptions{Model: model, SeedLimit: 4000})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// analyzeBoth builds the same recording twice: once untouched, once
// preprocessed. Symbolic execution is deterministic, so the two systems
// share SAP indexing and schedules transfer between them directly.
func analyzeBoth(t *testing.T, rec *Recording) (plain, pre *constraints.System) {
	t.Helper()
	plain, err := rec.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	pre, err = rec.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	pre.Preprocess()
	return plain, pre
}

// prunedSets computes, per read, the candidates Preprocess removed.
func prunedSets(pre *constraints.System) []map[constraints.SAPRef]bool {
	pruned := make([]map[constraints.SAPRef]bool, len(pre.Reads))
	for i := range pre.Reads {
		ri := &pre.Reads[i]
		if len(ri.Cands) == len(ri.AllRivals()) {
			continue
		}
		kept := map[constraints.SAPRef]bool{}
		for _, w := range ri.Cands {
			kept[w] = true
		}
		pruned[i] = map[constraints.SAPRef]bool{}
		for _, w := range ri.AllRivals() {
			if !kept[w] {
				pruned[i][w] = true
			}
		}
	}
	return pruned
}

// assertSchedule checks one candidate schedule against both systems:
// accept/reject must agree, accepted witnesses must agree, no accepted
// schedule may map a read to a pruned candidate, and NoInit reads never
// observe the initial value. Reports whether the schedule was accepted.
func assertSchedule(t *testing.T, plain, pre *constraints.System, pruned []map[constraints.SAPRef]bool, order []constraints.SAPRef) bool {
	t.Helper()
	wA, errA := plain.ValidateSchedule(order)
	wB, errB := pre.ValidateSchedule(order)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("systems disagree on schedule: plain=%v preprocessed=%v", errA, errB)
	}
	if errA != nil {
		return false
	}
	for i := range pre.Reads {
		ri := &pre.Reads[i]
		mw, mwB := wA.MappedWrite[ri.Read], wB.MappedWrite[ri.Read]
		if mw != mwB {
			t.Fatalf("witnesses disagree on read %v: %v vs %v", ri.Read, mw, mwB)
		}
		if pruned[i] != nil && pruned[i][mw] {
			t.Fatalf("accepted schedule maps read %v to pruned candidate %v", ri.Read, mw)
		}
		if ri.NoInit && mw == -1 {
			t.Fatalf("NoInit read %v observed the initial value", ri.Read)
		}
	}
	return true
}

// checkSameModels enumerates bounded candidate schedules and applies
// assertSchedule to each, returning how many were accepted. Some system
// shapes (condition variables) defeat the generator entirely — callers
// then fall back to solver-produced schedules for non-vacuity.
func checkSameModels(t *testing.T, plain, pre *constraints.System, budget int) int {
	t.Helper()
	pruned := prunedSets(pre)
	gen := schedule.NewGenerator(plain, schedule.Options{
		MaxSchedules:     budget,
		RespectHardEdges: true,
	})
	accepted := 0
	gen.Generate(4, func(order []constraints.SAPRef, _ int) bool {
		if assertSchedule(t, plain, pre, pruned, order) {
			accepted++
		}
		return true
	})
	return accepted
}

// solveAndCrossValidate solves the preprocessed system for a minimal
// schedule (SolveMinimal) and for a first one (cnfsolver.Solve), validates
// each solution against the original, unpreprocessed system, and runs the
// full per-schedule property on both solutions. Returns how many
// solutions it checked.
func solveAndCrossValidate(t *testing.T, plain, pre *constraints.System) int {
	t.Helper()
	pruned := prunedSets(pre)
	sol, _, err := cnfsolver.NewSession(pre, cnfsolver.Options{}).SolveMinimal(0)
	if err != nil {
		t.Fatalf("minimal solve of the preprocessed system: %v", err)
	}
	if !assertSchedule(t, plain, pre, pruned, sol.Order) {
		t.Fatal("minimal solution rejected by the original system")
	}
	csol, _, err := cnfsolver.Solve(pre, cnfsolver.Options{})
	if err != nil {
		t.Fatalf("cnf solver on preprocessed system: %v", err)
	}
	if !assertSchedule(t, plain, pre, pruned, csol.Order) {
		t.Fatal("cnf solution rejected by the original system")
	}
	return 2
}

func TestPreprocessPreservesSchedules(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		model vm.MemModel
	}{
		{"lost_update_sc", lostUpdateSrc, vm.SC},
		{"lost_update_pso", lostUpdateSrc, vm.PSO},
		{"lock_shadow", lockShadowSrc, vm.SC},
		{"mutex_prune", mutexPruneSrc, vm.SC},
		{"cond_prune", condPruneSrc, vm.SC},
		{"symbolic_index", symIdxSrc, vm.SC},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rec := recordSrc(t, tc.src, tc.model)
			plain, pre := analyzeBoth(t, rec)
			accepted := checkSameModels(t, plain, pre, 4000)
			accepted += solveAndCrossValidate(t, plain, pre)
			if accepted == 0 {
				t.Fatal("property check was vacuous: no schedule accepted")
			}
		})
	}
}

// TestPreprocessRuleCoverage pins that the individual rules actually fire
// on the programs designed to trigger them — a vacuously-green property
// suite would hide a pass that prunes nothing.
func TestPreprocessRuleCoverage(t *testing.T) {
	rec := recordSrc(t, lockShadowSrc, vm.SC)
	_, pre := analyzeBoth(t, rec)
	st := pre.Pre
	if st.CandsAfter >= st.CandsBefore {
		t.Fatalf("no candidates pruned on the shadowing program: %+v", st)
	}
	if st.PrunedLock == 0 && st.PrunedShadowed == 0 {
		t.Fatalf("neither shadowing rule fired: %+v", st)
	}

	rec = recordSrc(t, condPruneSrc, vm.SC)
	_, pre = analyzeBoth(t, rec)
	st = pre.Pre
	if st.WaitCandsAfter >= st.WaitCandsBefore {
		t.Fatalf("no wait candidate pruned: %+v", st)
	}

	rec = recordSrc(t, mutexPruneSrc, vm.SC)
	_, pre = analyzeBoth(t, rec)
	st = pre.Pre
	if st.PrunedMutex == 0 {
		t.Fatalf("mutual-exclusion rule did not fire: %+v", st)
	}

	// The lost-update program's assertion reads every variable the bug
	// depends on; the loop-free quiet reads of other programs may be free.
	rec = recordSrc(t, lockShadowSrc, vm.SC)
	_, pre = analyzeBoth(t, rec)
	if pre.Pre.Reads == 0 {
		t.Fatal("no reads in system")
	}
	// Preprocess must be idempotent.
	again := pre.Preprocess()
	if again != pre.Pre {
		t.Fatal("Preprocess is not idempotent")
	}
}

// TestPreprocessOnSalvagedMutants feeds seeded corruptions of a recorded
// log through salvage and analysis (the fault-injection seeds double as
// trace diversity) and re-runs the schedule-equivalence property on every
// mutant that still analyzes.
func TestPreprocessOnSalvagedMutants(t *testing.T) {
	rec := recordSrc(t, lostUpdateSrc, vm.SC)
	buf := rec.Log.EncodeFramed(trace.FramedOptions{EventsPerFrame: 8})
	c := faultinject.NewCorrupter(0x5EED)
	analyzed := 0
	for i := 0; i < 40; i++ {
		mut, _ := c.Mutate(buf)
		sl, _ := trace.DecodePathLogSalvage(mut)
		mrec := *rec
		mrec.Log = sl
		plain, err := mrec.Analyze()
		if err != nil {
			continue // the mutant no longer encodes a failing execution
		}
		pre, err := mrec.Analyze()
		if err != nil {
			t.Fatalf("mutant %d: second analysis disagrees: %v", i, err)
		}
		pre.Preprocess()
		analyzed++
		checkSameModels(t, plain, pre, 500)
	}
	if analyzed == 0 {
		t.Fatal("no mutant was analyzable: corruption sweep too destructive")
	}
}
