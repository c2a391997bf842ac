// Mapping-class goldens and the clause-count gate over the paper's
// benchmark corpus. TestLazyEagerEquivalenceOnBenchmarks is the corpus
// half of the mapping-class property (the randomized half, against the
// brute-force oracle, lives in internal/cnfsolver and internal/core): the
// CNF session must solve all eleven programs, symbolic addresses
// included, and reproduce the exact mapping sets of the small ones,
// concrete and symbolic alike. TestBenchGateLazyCNF is the CI smoke gate:
// on the slowest benchmarks the clause count must stay far below the
// cubic count an all-triples transitivity encoding would emit, so an
// encoding that grows with the cube of the SAP count fails fast.
package bench

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cnfsolver"
	"repro/internal/constraints"
)

// enumerateMappings collects distinct read→write mappings by repeated
// Solve + BlockMapping, validating each witness schedule. full is false
// when cap was reached before Unsat (the set is a prefix, not comparable).
func enumerateMappings(t *testing.T, sys *constraints.System, opts cnfsolver.Options, cap int) (keys []string, full bool) {
	t.Helper()
	sess := cnfsolver.NewSession(sys, opts)
	for len(keys) < cap {
		sol, _, err := sess.Solve()
		if err != nil {
			if _, isUnsat := err.(*cnfsolver.Unsat); isUnsat {
				sort.Strings(keys)
				return keys, true
			}
			t.Fatalf("solve: %v", err)
		}
		if _, err := sys.ValidateSchedule(sol.Order); err != nil {
			t.Fatalf("schedule does not validate: %v", err)
		}
		parts := make([]string, 0, len(sess.Mapping()))
		for _, w := range sess.Mapping() {
			parts = append(parts, fmt.Sprint(w))
		}
		keys = append(keys, strings.Join(parts, ","))
		sess.BlockMapping()
	}
	return keys, false
}

// smallEnumerable lists benchmarks cheap enough to enumerate their full
// mapping sets. Their 35–91 SAPs are too many for the brute-force oracle,
// so testdata/mappings holds each one's class set as the lazy and the
// former eager all-triples encoding both enumerated it, and the session
// must reproduce it byte for byte. Rewriting them with -update replaces
// that reference with the session's own answer: do it only for a change
// to the systems themselves (candidate order, preprocessing), never for a
// solver change. bbuf and pfscan carry symbolic addresses, so they pin
// address-split refinement on real programs. The rest get the
// solve-level check only.
var smallEnumerable = map[string]bool{
	"sim_race": true,
	"dekker":   true,
	"peterson": true,
	"bbuf":     true,
	"pfscan":   true,
}

func TestLazyEagerEquivalenceOnBenchmarks(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p := preparedFor(t, b)
			sys, err := FreshSystem(p)
			if err != nil {
				t.Fatal(err)
			}
			// The solve-level check runs with pipeline-default budgets:
			// every benchmark, symbolic addresses included, converges
			// within them.
			sol, st, err := cnfsolver.Solve(sys, cnfsolver.Options{Deadline: StageDeadline})
			if err != nil {
				t.Fatalf("cnf solve: %v", err)
			}
			// Solve already validated; re-check against a fresh system to
			// be explicit that the order stands on its own.
			fresh, err := FreshSystem(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.ValidateSchedule(sol.Order); err != nil {
				t.Fatalf("schedule does not re-validate: %v", err)
			}
			t.Logf("lazy: %d clauses, %d lazy rounds, %d lemmas", st.Clauses, st.LazyRounds, st.LazyLemmas)

			if !smallEnumerable[b.Name] {
				return
			}
			// Enumeration blocks one mapping class per feasible model plus
			// one theory round per value-rejected class, so it needs a
			// bigger round budget than a single solve.
			keys, full := enumerateMappings(t, fresh, cnfsolver.Options{Deadline: StageDeadline, MaxTheoryRounds: 20000}, 1024)
			if !full {
				t.Fatalf("mapping enumeration capped at %d classes; raise the cap or drop %s from smallEnumerable", len(keys), b.Name)
			}
			checkGolden(t, filepath.Join("testdata", "mappings", b.Name+".txt"), strings.Join(keys, "\n")+"\n")
			t.Logf("%d mapping classes", len(keys))
		})
	}
}

// TestBenchGateLazyCNF is the bench-gate smoke check wired into CI: on
// the historically slowest benchmarks the CNF stage must leave
// transitivity to its lazy theory, i.e. its clause count must sit far
// below the n(n-1)(n-2) ordered-triple implications that encoding
// transitivity up front costs (the paper's N³ of §4.1). racey is the
// symbolic-address representative: its array writes index by
// loop-carried values, so the gate holds its address-split lemmas to the
// same budget.
func TestBenchGateLazyCNF(t *testing.T) {
	for _, name := range []string{"swarm", "bakery", "dekker", "racey"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, ok := ByName(name)
			if !ok {
				t.Fatalf("benchmark %s missing", name)
			}
			p := preparedFor(t, b)
			sys, err := FreshSystem(p)
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := cnfsolver.Solve(sys, cnfsolver.Options{Deadline: StageDeadline})
			if err != nil {
				t.Fatalf("cnf stage failed: %v", err)
			}
			n := int64(len(sys.SAPs))
			ceiling := n * (n - 1) * (n - 2)
			if ceiling <= 0 {
				t.Fatalf("degenerate system: %d SAPs", n)
			}
			if st.Clauses >= ceiling/10 {
				t.Fatalf("cnf clauses = %d, want < cubic ceiling %d / 10 — lazy transitivity regressed", st.Clauses, ceiling)
			}
			t.Logf("%s: n=%d, clauses=%d (cubic ceiling %d)", name, n, st.Clauses, ceiling)
		})
	}
}
