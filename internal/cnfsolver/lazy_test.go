package cnfsolver_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/oracle"
	"repro/internal/symexec"
	"repro/internal/vm"
)

// mappingKey canonicalizes a read→write mapping vector for set comparison.
func mappingKey(m []int) string {
	parts := make([]string, len(m))
	for i, k := range m {
		parts[i] = fmt.Sprint(k)
	}
	return strings.Join(parts, ",")
}

// enumerateMappings collects every distinct feasible read→write mapping of
// the system under the given options by repeated Solve + BlockMapping.
// Every solution's schedule is validated on the way, and its witness must
// realize the mapping the session reports.
func enumerateMappings(t *testing.T, sys *constraints.System, opts cnfsolver.Options, cap int) []string {
	t.Helper()
	sess := cnfsolver.NewSession(sys, opts)
	var keys []string
	for len(keys) < cap {
		sol, _, err := sess.Solve()
		if err != nil {
			if _, ok := err.(*cnfsolver.Unsat); ok {
				break
			}
			t.Fatalf("solve: %v", err)
		}
		w, err := sys.ValidateSchedule(sol.Order)
		if err != nil {
			t.Fatalf("enumerated schedule does not validate: %v", err)
		}
		key := mappingKey(sess.Mapping())
		if m, err := oracle.Mapping(sys, w); err != nil {
			t.Fatal(err)
		} else if mappingKey(m) != key {
			t.Fatalf("session reports mapping %s, its schedule realizes %s", key, mappingKey(m))
		}
		keys = append(keys, key)
		sess.BlockMapping()
	}
	sort.Strings(keys)
	return keys
}

// oracleLimit bounds the orders one brute-force walk may visit; the
// systems these tests build stay far below it.
const oracleLimit = 1 << 20

// reference is what the brute-force oracle says about a system: the
// mapping classes of its valid schedules and the fewest preemptions any
// of them has.
type reference struct {
	classes        []string
	minPreemptions int
}

// walkOracle enumerates every valid schedule of sys. It fails the test
// when the walk does not finish or when a valid schedule takes a write
// preprocessing pruned.
func walkOracle(t *testing.T, sys *constraints.System) reference {
	t.Helper()
	seen := map[string]bool{}
	ref := reference{minPreemptions: -1}
	var mapErr error
	complete := oracle.Enumerate(sys, oracleLimit, func(_ []constraints.SAPRef, w *constraints.Witness) {
		m, err := oracle.Mapping(sys, w)
		if err != nil {
			mapErr = err
			return
		}
		if key := mappingKey(m); !seen[key] {
			seen[key] = true
			ref.classes = append(ref.classes, key)
		}
		if ref.minPreemptions < 0 || w.Preemptions < ref.minPreemptions {
			ref.minPreemptions = w.Preemptions
		}
	})
	if mapErr != nil {
		t.Fatal(mapErr)
	}
	if !complete {
		t.Fatalf("oracle walk of %d SAPs exceeded %d orders", len(sys.SAPs), oracleLimit)
	}
	sort.Strings(ref.classes)
	return ref
}

// checkClasses compares the session's mapping classes with the oracle's.
// It reports how many classes there are.
func checkClasses(t *testing.T, sys *constraints.System, opts cnfsolver.Options) int {
	t.Helper()
	want := walkOracle(t, sys).classes
	if len(want) == 0 {
		t.Fatal("the oracle found no valid schedule of a failing recording")
	}
	got := enumerateMappings(t, sys, opts, 4*len(want))
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("mapping classes differ:\nlazy:   %v\noracle: %v", got, want)
	}
	return len(want)
}

// TestLazyMatchesEagerMappings checks the CNF session against the
// brute-force oracle on hand-written systems: it must enumerate exactly
// the read→write mapping classes of the valid schedules, each with a
// validating witness.
func TestLazyMatchesEagerMappings(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		model vm.MemModel
	}{
		{"figure2", figure2SC, vm.SC},
		{"lost update", lostUpdateSC, vm.SC},
		{"figure2 PSO", figure2PSO, vm.PSO},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, sys := buildSystem(t, tc.src, tc.model, 3000)
			t.Logf("%d mapping classes", checkClasses(t, sys, cnfsolver.Options{}))
		})
	}
}

// TestPropertySymbolicAddrLazyMatchesEager is the randomized half of the
// mapping-class check: on random symbolic-address programs, address-split
// refinement must enumerate exactly the oracle's mapping classes.
func TestPropertySymbolicAddrLazyMatchesEager(t *testing.T) {
	const trials = 12
	r := rand.New(rand.NewSource(41))
	compared, multi := 0, 0
	for trial := 0; trial < trials; trial++ {
		src, model := oracle.Program(r, oracle.SymbolicIndex)
		prog, err := core.Compile(src)
		if err != nil {
			t.Fatalf("trial %d: generated program does not compile: %v\n%s", trial, err, src)
		}
		rec, err := core.Record(prog, core.RecordOptions{Model: model, SeedLimit: 3000})
		if err != nil {
			continue // this variant never failed
		}
		sys, err := rec.Analyze()
		if err != nil {
			t.Fatalf("trial %d: analyze: %v\n%s", trial, err, src)
		}
		hasSym := false
		for _, sap := range sys.SAPs {
			if sap.Kind.IsMemory() && sap.Addr == symexec.NoAddr {
				hasSym = true
				break
			}
		}
		if !hasSym {
			continue // constant-folded index: not the shape under test
		}
		if checkClasses(t, sys, cnfsolver.Options{MaxTheoryRounds: 20000}) > 1 {
			multi++
		}
		compared++
	}
	if compared < trials || 2*multi < compared {
		t.Fatalf("compared %d/%d random symbolic-address programs, %d with several mapping classes; generator too tame", compared, trials, multi)
	}
	t.Logf("mapping classes equal on %d/%d random symbolic-address programs, %d with several classes", compared, trials, multi)
}

// TestSessionRetractBlocks checks the cross-attempt reuse contract: after
// blocking every mapping to exhaustion, retracting the blocks makes the
// session solvable again without re-encoding.
func TestSessionRetractBlocks(t *testing.T) {
	_, sys := buildSystem(t, figure2SC, vm.SC, 3000)
	sess := cnfsolver.NewSession(sys, cnfsolver.Options{})
	solutions := 0
	for {
		_, _, err := sess.Solve()
		if err != nil {
			if _, ok := err.(*cnfsolver.Unsat); ok {
				break
			}
			t.Fatalf("solve: %v", err)
		}
		solutions++
		sess.BlockMapping()
		if solutions > 256 {
			t.Fatal("runaway enumeration")
		}
	}
	if solutions == 0 {
		t.Fatal("system must be satisfiable")
	}
	sess.RetractBlocks()
	if _, _, err := sess.Solve(); err != nil {
		t.Fatalf("solve after RetractBlocks: %v", err)
	}
}

// TestUnsatNamesNeverReleasedRegions pins the explainable-unsat contract
// for the lock-region default branch: two cross-thread regions that never
// release their mutex must produce an Unsat error that names the mutex
// and both regions, not a silent empty clause.
func TestUnsatNamesNeverReleasedRegions(t *testing.T) {
	_, sys := buildSystem(t, figure2SC, vm.SC, 3000)
	// Graft a conflicting pair of never-released regions onto the system:
	// the encoder only looks at Thread/Lock/HasUnlock.
	if sys.Regions == nil {
		sys.Regions = map[ir.SyncID][]constraints.Region{}
	}
	sys.Regions[3] = []constraints.Region{
		{Thread: 0, Lock: 0, HasUnlock: false},
		{Thread: 1, Lock: 1, HasUnlock: false},
	}
	_, _, err := cnfsolver.Solve(sys, cnfsolver.Options{})
	u, ok := err.(*cnfsolver.Unsat)
	if !ok {
		t.Fatalf("expected Unsat, got %v", err)
	}
	if u.Conflict == nil {
		t.Fatal("Unsat must carry the region conflict")
	}
	if u.Conflict.GroupID() != "fso/lock/m3" {
		t.Fatalf("conflict group = %q, want fso/lock/m3", u.Conflict.GroupID())
	}
	msg := u.Error()
	for _, want := range []string{"m3", "thread 0", "thread 1", "never release"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("unsat message %q missing %q", msg, want)
		}
	}
}
