// Randomized mapping-class property for the CNF core: on random programs
// of every oracle.Program shape, the session must enumerate exactly the
// read→write mapping classes of the valid schedules the brute-force
// oracle walks, each with a validating witness. This is the end-to-end
// guard that the refinement loop never invents or loses interleavings.
package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cnfsolver"
	"repro/internal/constraints"
	"repro/internal/oracle"
)

// enumerateCNFMappings collects up to cap distinct feasible read→write
// mappings of sys by repeated Solve + BlockMapping, validating every
// witness schedule.
func enumerateCNFMappings(t *testing.T, sys *constraints.System, opts cnfsolver.Options, cap int) (keys []string) {
	t.Helper()
	sess := cnfsolver.NewSession(sys, opts)
	for len(keys) < cap {
		sol, _, err := sess.Solve()
		if err != nil {
			if _, isUnsat := err.(*cnfsolver.Unsat); isUnsat {
				break
			}
			t.Fatalf("solve: %v", err)
		}
		if _, err := sys.ValidateSchedule(sol.Order); err != nil {
			t.Fatalf("enumerated schedule does not validate: %v", err)
		}
		keys = append(keys, fmt.Sprint(sess.Mapping()))
		sess.BlockMapping()
	}
	sort.Strings(keys)
	return keys
}

// oracleMappings returns the mapping classes of every valid schedule of
// sys, or ok=false when the walk exceeded limit orders.
func oracleMappings(t *testing.T, sys *constraints.System, limit int) (keys []string, ok bool) {
	t.Helper()
	seen := map[string]bool{}
	var mapErr error
	ok = oracle.Enumerate(sys, limit, func(_ []constraints.SAPRef, w *constraints.Witness) {
		m, err := oracle.Mapping(sys, w)
		if err != nil {
			mapErr = err
			return
		}
		if key := fmt.Sprint(m); !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	})
	if mapErr != nil {
		t.Fatal(mapErr)
	}
	sort.Strings(keys)
	return keys, ok
}

func TestPropertyLazyMatchesEagerOnRandomPrograms(t *testing.T) {
	const (
		trials = 20
		// Random programs can cycle through many value-rejected mapping
		// classes before each feasible one; give the theory loop room.
		theoryRounds = 20000
	)
	r := rand.New(rand.NewSource(4242))
	compared, multi := 0, 0
	for trial := 0; trial < trials; trial++ {
		src, model := oracle.Program(r, oracle.Shapes[trial%len(oracle.Shapes)])
		prog, err := Compile(src)
		if err != nil {
			t.Fatalf("trial %d: generated program does not compile: %v\n%s", trial, err, src)
		}
		rec, err := Record(prog, RecordOptions{Model: model, SeedLimit: 3000})
		if err != nil {
			continue // this variant never failed
		}
		sys, err := rec.Analyze()
		if err != nil {
			t.Fatalf("trial %d: analyze: %v", trial, err)
		}
		sys.Preprocess()

		want, full := oracleMappings(t, sys, 1<<20)
		if !full {
			t.Fatalf("trial %d: %d SAPs are too many for the oracle\n%s", trial, len(sys.SAPs), src)
		}
		if len(want) == 0 {
			t.Fatalf("trial %d: recording failed but the oracle found no valid schedule\n%s", trial, src)
		}
		got := enumerateCNFMappings(t, sys, cnfsolver.Options{MaxTheoryRounds: theoryRounds}, 4*len(want))
		if strings.Join(got, ";") != strings.Join(want, ";") {
			t.Fatalf("trial %d: lazy mappings (%d) != oracle mappings (%d)\nlazy:   %v\noracle: %v\n%s",
				trial, len(got), len(want), got, want, src)
		}
		if len(want) > 1 {
			multi++
		}
		compared++
	}
	if compared < trials || 2*multi < compared {
		t.Fatalf("compared %d/%d random programs, %d with several mapping classes; generator too tame", compared, trials, multi)
	}
	t.Logf("lazy == oracle mapping classes on %d/%d random programs, %d with several classes", compared, trials, multi)
}
