package cnfsolver_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/schedule"
	"repro/internal/solver"
	"repro/internal/symexec"
	"repro/internal/vm"
)

// usesCondvars reports whether any thread waits, signals or broadcasts:
// the descent charges every open wait-end gap, so on such systems it may
// stop above the minimum.
func usesCondvars(sys *constraints.System) bool {
	for _, sap := range sys.SAPs {
		switch sap.Kind {
		case symexec.SAPWaitBegin, symexec.SAPWaitEnd, symexec.SAPSignal, symexec.SAPBroadcast:
			return true
		}
	}
	return false
}

// checkDescent compares SolveMinimal(0) with schedule.Enumerate run to
// its caps. Every schedule the descent returns must validate and can
// never beat the bounds the enumeration refuted exhaustively. A schedule
// the enumeration finds sits at that floor, so it is minimal; when the
// system is SC without condition variables the descent must return
// exactly as many preemptions. It reports whether that exact comparison
// applied.
func checkDescent(t *testing.T, name string, sys *constraints.System) bool {
	t.Helper()
	order, w, floor := schedule.Enumerate(sys, nil)
	sol, _, err := cnfsolver.NewSession(sys, cnfsolver.Options{Deadline: 60 * time.Second}).SolveMinimal(0)
	if err != nil {
		t.Fatalf("%s: SolveMinimal: %v", name, err)
	}
	v, err := sys.ValidateSchedule(sol.Order)
	if err != nil {
		t.Fatalf("%s: descent schedule does not validate: %v", name, err)
	}
	if v.Preemptions != sol.Preemptions {
		t.Fatalf("%s: solution reports %d preemptions, witness %d", name, sol.Preemptions, v.Preemptions)
	}
	if sol.Preemptions < floor {
		t.Fatalf("%s: descent returned %d preemptions, below the %d bounds the enumeration refuted", name, sol.Preemptions, floor)
	}
	if order == nil {
		t.Logf("%s: enumeration refuted %d bounds", name, floor)
		return false
	}
	if w.Preemptions != floor {
		t.Fatalf("%s: enumeration returned %d preemptions at bound %d", name, w.Preemptions, floor)
	}
	if sys.Model != vm.SC || usesCondvars(sys) {
		return false
	}
	if sol.Preemptions != floor {
		t.Errorf("%s: descent returned %d preemptions, the enumerated minimum is %d", name, sol.Preemptions, floor)
	}
	return true
}

// TestDescentMatchesEnumeratorMinimum is the descent's differential test
// over the SC evaluation programs, three recordings each; those with
// condition variables, and those whose minimum lies past the
// enumeration's caps (apache and racey), only check validity and the
// refuted floor.
func TestDescentMatchesEnumeratorMinimum(t *testing.T) {
	if testing.Short() {
		t.Skip("records every SC evaluation program")
	}
	exact := 0
	for _, b := range bench.All() {
		if b.Model != vm.SC {
			continue
		}
		prog, err := core.Compile(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < 3; k++ {
			rec, err := core.Record(prog, core.RecordOptions{Model: b.Model, Inputs: b.Inputs, Seed: k << 20, SeedLimit: b.SeedLimit})
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			sys, err := rec.Analyze()
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			sys.Preprocess()
			if checkDescent(t, b.Name, sys) {
				exact++
			}
		}
	}
	// sim_race, swarm and pfscan alone give nine exact comparisons, each
	// enumerated in milliseconds even under the race detector.
	if exact < 8 {
		t.Fatalf("only %d recordings compared exactly; the enumeration found too few schedules", exact)
	}
	t.Logf("%d recordings compared exactly", exact)
}

// recordBench records benchmark name from hunt base base and returns its
// preprocessed system.
func recordBench(t *testing.T, name string, base int64) *constraints.System {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %q", name)
	}
	prog, err := core.Compile(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.Record(prog, core.RecordOptions{Model: b.Model, Inputs: b.Inputs, Seed: base, SeedLimit: b.SeedLimit})
	if err != nil {
		t.Fatalf("%s at base %d: %v", name, base, err)
	}
	sys, err := rec.Analyze()
	if err != nil {
		t.Fatalf("%s at base %d: %v", name, base, err)
	}
	sys.Preprocess()
	return sys
}

// TestDescentConvergesOnAget guards the value budget on aget, whose path
// conditions compare a cursor read with the input while its candidate
// writes store c + 1: no static value lemma covers them, so the value
// theory rejects one mapping support at a time. SolveMinimal(0) must
// succeed on the recordings of hunt bases k<<20, k = 0..39, within the
// default 200 value rejections per entry; with a SAT call per rejection,
// bases 28<<20 and 32<<20 ran out of that budget.
func TestDescentConvergesOnAget(t *testing.T) {
	if testing.Short() {
		t.Skip("records aget forty times")
	}
	most := 0
	for k := int64(0); k < 40; k++ {
		sys := recordBench(t, "aget", k<<20)
		sol, st, err := cnfsolver.NewSession(sys, cnfsolver.Options{Deadline: 60 * time.Second}).SolveMinimal(0)
		if err != nil {
			t.Errorf("base %d<<20: %v", k, err)
			continue
		}
		if _, err := sys.ValidateSchedule(sol.Order); err != nil {
			t.Errorf("base %d<<20: schedule does not validate: %v", k, err)
		}
		most = max(most, st.TheoryRounds)
	}
	t.Logf("at most %d value checks in one SolveMinimal", most)
}

// TestSolveMinimalWalksPastTheoryBudget forces the first DPLL(T) entry on
// two dekker recordings over small value budgets. For each budget the
// first entry runs out of, with ErrTheoryBudget and the budget's message,
// SolveMinimal must walk the bound up from 0 with a fresh budget per entry
// and return a validated schedule at the minimum a generous budget
// proves, unless a bounded entry runs out too. At least one walk must
// succeed.
func TestSolveMinimalWalksPastTheoryBudget(t *testing.T) {
	walked := 0
	for base := int64(0); base < 2; base++ {
		sys := recordBench(t, "dekker", base<<20)
		ref, _, err := cnfsolver.NewSession(sys, cnfsolver.Options{MaxTheoryRounds: 1 << 20}).SolveMinimal(0)
		if err != nil {
			t.Fatalf("base %d<<20: reference SolveMinimal: %v", base, err)
		}
		for budget := 1; budget <= 16; budget++ {
			opts := cnfsolver.Options{MaxTheoryRounds: budget, Deadline: 60 * time.Second}
			_, _, err := cnfsolver.NewSession(sys, opts).Solve()
			if !errors.Is(err, cnfsolver.ErrTheoryBudget) {
				continue
			}
			if want := fmt.Sprintf("cnfsolver: theory refinement did not converge in %d rounds", budget); err.Error() != want {
				t.Errorf("budget %d: error %q, want %q", budget, err, want)
			}
			sol, st, err := cnfsolver.NewSession(sys, opts).SolveMinimal(0)
			if errors.Is(err, cnfsolver.ErrTheoryBudget) {
				continue // a bounded entry ran out as well
			}
			if err != nil {
				t.Fatalf("base %d<<20, budget %d: SolveMinimal: %v", base, budget, err)
			}
			if _, err := sys.ValidateSchedule(sol.Order); err != nil {
				t.Fatalf("base %d<<20, budget %d: schedule does not validate: %v", base, budget, err)
			}
			if sol.Preemptions != ref.Preemptions || st.Descents == 0 {
				t.Errorf("base %d<<20, budget %d: %d preemptions after %d bounded entries, the minimum is %d", base, budget, sol.Preemptions, st.Descents, ref.Preemptions)
			}
			walked++
		}
	}
	if walked == 0 {
		t.Fatal("no budget both stopped the first entry and let the walk converge")
	}
	t.Logf("%d walks reached the minimum", walked)
}

// TestSolveMinimalDeadlineAndProgress runs racey's descent under short
// deadlines: it must return within 100 ms of each, with a validated
// schedule or *solver.Interrupted, and, with every theory check inside
// one SAT call, Progress must still see the rejection counters move —
// on at least half the rejections, which the SAT engine's stop-hook
// stride alone does not reach.
func TestSolveMinimalDeadlineAndProgress(t *testing.T) {
	sys := recordBench(t, "racey", 0)
	for _, deadline := range []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond} {
		rises, last := 0, int64(0)
		progress := func(st cnfsolver.Stats) {
			if n := st.LazyRounds + st.AddrRounds + st.MappingBlocks; n > last {
				rises++
				last = n
			}
		}
		sess := cnfsolver.NewSession(sys, cnfsolver.Options{Deadline: deadline, Progress: progress})
		start := time.Now()
		sol, st, err := sess.SolveMinimal(0)
		if took := time.Since(start); took > deadline+100*time.Millisecond {
			t.Errorf("deadline %v: SolveMinimal took %v", deadline, took)
		}
		var intr *solver.Interrupted
		switch {
		case errors.As(err, &intr):
		case err != nil:
			t.Errorf("deadline %v: %v", deadline, err)
		default:
			if _, verr := sys.ValidateSchedule(sol.Order); verr != nil {
				t.Errorf("deadline %v: schedule does not validate: %v", deadline, verr)
			}
		}
		rejections := st.LazyRounds + st.AddrRounds + st.MappingBlocks
		if deadline == 40*time.Millisecond && (rises < 10 || 2*int64(rises) < rejections) {
			t.Errorf("deadline %v: Progress saw the rejection counters rise %d times in %d rejections, want at least 10 and half", deadline, rises, rejections)
		}
		t.Logf("deadline %v: err=%v, rejection counters rose %d times in %d rejections", deadline, err, rises, rejections)
	}
}

// TestSolveMinimalCutKeepsFirstSchedule pins what a search cut short
// returns: the first schedule, without an error. The bound walks up, and
// no bound below the minimum admits a schedule, so a cut search improves
// nothing; on a TSO/PSO recording the first schedule is often several
// times the minimum (DESIGN.md, "The search", has the figures under short
// deadlines). Progress cancels the context on the first check inside the
// search, and every bound that admits a schedule passes through such a
// check first, so the cut is deterministic.
func TestSolveMinimalCutKeepsFirstSchedule(t *testing.T) {
	sys := recordBench(t, "bakery", 0)
	opts := cnfsolver.Options{Deadline: 60 * time.Second}
	first, _, err := cnfsolver.NewSession(sys, opts).Solve()
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := cnfsolver.NewSession(sys, opts).SolveMinimal(0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Preemptions >= first.Preemptions {
		t.Fatalf("first schedule has %d preemptions, the minimum %d: nothing to cut", first.Preemptions, full.Preemptions)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Ctx = ctx
	opts.Progress = func(st cnfsolver.Stats) {
		if st.Descents > 0 {
			cancel()
		}
	}
	sol, st, err := cnfsolver.NewSession(sys, opts).SolveMinimal(0)
	if err != nil {
		t.Fatalf("cut search: %v", err)
	}
	if st.Descents == 0 {
		t.Fatal("the search never started")
	}
	if _, err := sys.ValidateSchedule(sol.Order); err != nil {
		t.Fatalf("cut search: schedule does not validate: %v", err)
	}
	if sol.Preemptions != first.Preemptions {
		t.Fatalf("cut search returned %d preemptions, want the first schedule's %d", sol.Preemptions, first.Preemptions)
	}
	t.Logf("first schedule %d preemptions, minimum %d", first.Preemptions, full.Preemptions)
}

// TestPropertyDescentSymbolicAddr runs the differential check on random
// symbolic-address programs, where address-split refinement shapes every
// descent step.
func TestPropertyDescentSymbolicAddr(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	exact := 0
	for trial := 0; trial < 12; trial++ {
		src, model := oracle.Program(r, oracle.SymbolicIndex)
		prog, err := core.Compile(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		rec, err := core.Record(prog, core.RecordOptions{Model: model, SeedLimit: 3000})
		if err != nil {
			continue // this variant never failed
		}
		sys, err := rec.Analyze()
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		sys.Preprocess()
		if checkDescent(t, src, sys) {
			exact++
		}
	}
	if exact < 5 {
		t.Fatalf("only %d random programs compared exactly", exact)
	}
	t.Logf("%d random programs compared exactly", exact)
}

// drainLateTSO needs main's buffered store to x to drain after the
// child's load of x and right before main's fence: glued to the chain SAP
// after it, not the one before.
const drainLateTSO = `
int x;
int y;
int seen;
func child() {
	int c = x;
	y = 1;
	seen = c;
}
func main() {
	int h = spawn child();
	x = 1;
	fence();
	int r = y;
	join(h);
	int s = seen;
	assert(!(r == 1 && s == 0), "y landed before x was seen");
}
`

// drainPairTSO needs both of main's buffered stores to drain together
// between the child's loads, while main waits at its join: a run of two
// drains, the second glued to the first.
const drainPairTSO = `
int x;
int z;
func child() {
	int c1 = x;
	int c2 = z;
	int c3 = x;
	int c4 = z;
	assert(!(c1 == 0 && c2 == 0 && c3 == 1 && c4 == 1), "both stores landed between the loads");
}
func main() {
	int h = spawn child();
	x = 1;
	z = 1;
	join(h);
}
`

// drainAfterJoinTSO switches away from main at its join while its store
// to x is still buffered: a preemption although the join cannot run yet.
const drainAfterJoinTSO = `
int x;
int seen;
func child() {
	seen = x;
}
func main() {
	int h = spawn child();
	x = 1;
	join(h);
	int s = seen;
	assert(s == 1, "the child missed the store");
}
`

// drainEarlyTSO needs main's buffered store to x to drain right after its
// spawn, before the child runs, and main's load of y to wait for the
// child: glued to the chain SAP before it, not the one after.
const drainEarlyTSO = `
int x;
int y;
int seen;
func child() {
	int c = x;
	y = 1;
	seen = c;
}
func main() {
	int h = spawn child();
	x = 1;
	int r = y;
	join(h);
	int s = seen;
	assert(!(r == 1 && s == 1), "the child ran between the store and the load");
}
`

// relaxedDraws records the TSO/PSO draws of oracle.Program from seeds
// 44–48, 24 trials each, shapes in turn; the SC draws are skipped.
func relaxedDraws(t *testing.T) (names []string, systems []*constraints.System) {
	t.Helper()
	for seed := int64(44); seed <= 48; seed++ {
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 24; trial++ {
			shape := oracle.Shapes[trial%len(oracle.Shapes)]
			src, model := oracle.Program(r, shape)
			if model == vm.SC {
				continue
			}
			prog, err := core.Compile(src)
			if err != nil {
				t.Fatalf("seed %d trial %d: %v\n%s", seed, trial, err, src)
			}
			rec, err := core.Record(prog, core.RecordOptions{Model: model, SeedLimit: 3000})
			if err != nil {
				continue // this variant never failed
			}
			sys, err := rec.Analyze()
			if err != nil {
				t.Fatalf("seed %d trial %d: %v\n%s", seed, trial, err, src)
			}
			sys.Preprocess()
			names = append(names, fmt.Sprintf("%s %v seed %d trial %d", shape, model, seed, trial))
			systems = append(systems, sys)
		}
	}
	return names, systems
}

// chargesExact checks the two facts a refuted bound's proof rests on at
// the oracle minimum want, each on a fresh session: the bound want admits
// a schedule, which has want preemptions (no schedule is over-charged out
// of it), and the bound want−1 is refuted (no model's charges undercount
// its schedule's preemptions down to it).
func chargesExact(t *testing.T, name string, sys *constraints.System, want int) bool {
	t.Helper()
	opts := cnfsolver.Options{Deadline: 60 * time.Second}
	sol, err := cnfsolver.NewSession(sys, opts).SolveBound(want)
	if err != nil {
		t.Errorf("%s: bound %d (the oracle minimum) admits no schedule: %v", name, want, err)
		return false
	}
	if sol.Preemptions != want {
		t.Errorf("%s: bound %d admits a schedule with %d preemptions", name, want, sol.Preemptions)
		return false
	}
	if want == 0 {
		return true
	}
	var unsat *cnfsolver.Unsat
	if _, err := cnfsolver.NewSession(sys, opts).SolveBound(want - 1); !errors.As(err, &unsat) {
		t.Errorf("%s: bound %d, below the oracle minimum, is not refuted: %v", name, want-1, err)
		return false
	}
	return true
}

// namedSystem is one system of the oracle tests, with a name for failures.
type namedSystem struct {
	name string
	sys  *constraints.System
}

// oracleSystems collects the systems the oracle minimum is checked on: the
// hand-written ones, random SC programs of every shape from seed 44 and
// the TSO/PSO draws of relaxedDraws, each preprocessed.
func oracleSystems(t *testing.T) []namedSystem {
	t.Helper()
	var systems []namedSystem
	for _, tc := range []struct {
		name  string
		src   string
		model vm.MemModel
	}{
		{"figure2", figure2SC, vm.SC},
		{"lost update", lostUpdateSC, vm.SC},
		{"figure2 PSO", figure2PSO, vm.PSO},
		{"late drain", drainLateTSO, vm.TSO},
		{"early drain", drainEarlyTSO, vm.TSO},
		{"drain pair", drainPairTSO, vm.TSO},
		{"drain after join", drainAfterJoinTSO, vm.TSO},
	} {
		_, sys := buildSystem(t, tc.src, tc.model, 3000)
		sys.Preprocess()
		systems = append(systems, namedSystem{tc.name, sys})
	}
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 12; trial++ {
		shape := oracle.Shapes[trial%len(oracle.Shapes)]
		src, model := oracle.Program(r, shape)
		if model != vm.SC {
			continue // among relaxedDraws
		}
		prog, err := core.Compile(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		rec, err := core.Record(prog, core.RecordOptions{Model: model, SeedLimit: 3000})
		if err != nil {
			continue // this variant never failed
		}
		sys, err := rec.Analyze()
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		sys.Preprocess()
		systems = append(systems, namedSystem{fmt.Sprintf("%s trial %d", shape, trial), sys})
	}
	names, relaxedSystems := relaxedDraws(t)
	for i, sys := range relaxedSystems {
		systems = append(systems, namedSystem{names[i], sys})
	}
	return systems
}

// TestDescentMatchesOracleMinimum checks both minimal-preemption searches
// against the fewest preemptions over every valid schedule, on the
// systems of oracleSystems. Without condition variables SolveMinimal(0)
// must reach that minimum under every memory model, and the charges must
// be exact there (chargesExact). schedule.Enumerate is exact on every
// model, so whenever it returns a schedule it must sit at the minimum.
func TestDescentMatchesOracleMinimum(t *testing.T) {
	systems := oracleSystems(t)
	exact, relaxed, enumerated := 0, 0, 0
	for _, c := range systems {
		want := walkOracle(t, c.sys).minPreemptions
		if want < 0 {
			t.Fatalf("%s: the oracle found no valid schedule", c.name)
		}
		sol, _, err := cnfsolver.NewSession(c.sys, cnfsolver.Options{Deadline: 60 * time.Second}).SolveMinimal(0)
		if err != nil {
			t.Fatalf("%s: SolveMinimal: %v", c.name, err)
		}
		if _, err := c.sys.ValidateSchedule(sol.Order); err != nil {
			t.Fatalf("%s: descent schedule does not validate: %v", c.name, err)
		}
		switch {
		case usesCondvars(c.sys):
			if sol.Preemptions < want {
				t.Errorf("%s: descent returned %d preemptions, below the oracle minimum %d", c.name, sol.Preemptions, want)
			}
		case sol.Preemptions != want:
			t.Errorf("%s: descent returned %d preemptions, the oracle minimum is %d", c.name, sol.Preemptions, want)
		case !chargesExact(t, c.name, c.sys, want):
		case c.sys.Model == vm.SC:
			exact++
		default:
			relaxed++
		}
		order, w, _ := schedule.Enumerate(c.sys, nil)
		if order == nil {
			continue
		}
		if w.Preemptions != want {
			t.Errorf("%s: enumeration returned %d preemptions, the oracle minimum is %d", c.name, w.Preemptions, want)
		}
		enumerated++
	}
	if exact < 6 || relaxed < 20 || 2*enumerated < len(systems) {
		t.Fatalf("compared %d SC and %d TSO/PSO descents and %d of %d enumerations; too few", exact, relaxed, enumerated, len(systems))
	}
	t.Logf("compared %d SC and %d TSO/PSO descents and %d enumerations with the oracle minimum", exact, relaxed, enumerated)
}

// storeForwardTSO is the store-buffer draw oracle.Program leaves out:
// thread 0 reloads its own flag, and thread 1 fences after raising its
// flag. Under TSO the VM forwards thread 0's buffered flag store to the
// reload without draining it, so both threads can see the other's flag
// down, while the encoding's same-address W→R edge drains the store
// before the reload and leaves that failure no valid schedule.
const storeForwardTSO = `
int flag0;
int flag1;
int bad;
func t0() {
	flag0 = 1;
	int mine = flag0;
	if (flag1 == 0) {
		bad = bad + 1;
	}
}
func t1() {
	flag1 = 1;
	fence();
	if (flag0 == 0) {
		bad = bad + 1;
	}
}
func main() {
	int h0 = spawn t0();
	int h1 = spawn t1();
	join(h0);
	join(h1);
	int b = bad;
	assert(b <= 1, "both passed the gate");
}
`

// TestStoreForwardingReproduces records storeForwardTSO, which fails in
// the VM. While the encoding drains a buffered store before its own
// thread's reload of the address, the oracle finds no valid schedule and
// the test skips (ROADMAP.md item 5; FOUND in CHANGES.md). Once the
// encoding forwards such stores, the test runs: the descent must reach
// the oracle minimum with exact charges.
func TestStoreForwardingReproduces(t *testing.T) {
	_, sys := buildSystem(t, storeForwardTSO, vm.TSO, 3000)
	sys.Preprocess()
	want := walkOracle(t, sys).minPreemptions
	if want < 0 {
		t.Skip("known gap: the encoding drains a buffered store before its thread's reload, which the VM forwards, so this TSO failure has no valid schedule (ROADMAP.md item 5)")
	}
	sol, _, err := cnfsolver.NewSession(sys, cnfsolver.Options{Deadline: 60 * time.Second}).SolveMinimal(0)
	if err != nil {
		t.Fatalf("SolveMinimal: %v", err)
	}
	if _, err := sys.ValidateSchedule(sol.Order); err != nil {
		t.Fatalf("schedule does not validate: %v", err)
	}
	if sol.Preemptions != want {
		t.Fatalf("descent returned %d preemptions, the oracle minimum is %d", sol.Preemptions, want)
	}
	chargesExact(t, "store forwarding", sys, want)
}
