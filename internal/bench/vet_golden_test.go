package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/staticanalysis"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// vetRender compiles the source and returns the clap-vet report.
func vetRender(t *testing.T, src string) string {
	t.Helper()
	prog, err := ir.CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return staticanalysis.Analyze(prog).Render()
}

// checkGolden compares got against the golden file, rewriting it under
// -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("update %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if string(want) != got {
		t.Errorf("output drifted from %s:\n--- golden\n%s--- got\n%s", path, want, got)
	}
}

// knownRacyVars names, per benchmark, variables whose races are the
// documented failure cause; vet must flag every one of them.
var knownRacyVars = map[string][]string{
	"sim_race": {"x", "y"},
	"pbzip2":   {"mu_valid"},
	"aget":     {"cursor"},
	"bbuf":     {"bad"},
	"swarm":    {"data"},
	"pfscan":   {"matches"},
	"apache":   {"qcount", "bad"},
	"bakery":   {"bad"},
	"dekker":   {"bad"},
	"peterson": {"bad"},
	"racey":    {"hist"},
}

// TestVetGoldenBenchmarks pins the clap-vet report for the paper's eleven
// programs, and asserts each benchmark's documented racy variables are
// flagged. All eleven are intentionally racy, so every report must find
// at least one race.
func TestVetGoldenBenchmarks(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			got := vetRender(t, b.Source)
			checkGolden(t, filepath.Join("testdata", "vet", b.Name+".vet"), got)
			if strings.Contains(got, "no potential races") {
				t.Errorf("%s is intentionally racy, vet found nothing:\n%s", b.Name, got)
			}
			for _, v := range knownRacyVars[b.Name] {
				if !strings.Contains(got, "race: "+v+":") {
					t.Errorf("%s: known racy variable %q not flagged:\n%s", b.Name, v, got)
				}
			}
		})
	}
}

// TestVetGoldenExamples pins the clap-vet report for the examples/vet
// programs. The lock-correct examples double as false-positive
// regression tests: their reports must stay race-free.
func TestVetGoldenExamples(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "vet")
	paths, err := filepath.Glob(filepath.Join(dir, "*.mc"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no vet examples under %s (err=%v)", dir, err)
	}
	clean := map[string]bool{"figure2_locked": true, "condvar": true}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".mc")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := vetRender(t, string(src))
			checkGolden(t, strings.TrimSuffix(path, ".mc")+".vet", got)
			if clean[name] && !strings.Contains(got, "no potential races") {
				t.Errorf("%s is lock-correct, vet must not cry wolf:\n%s", name, got)
			}
			if name == "deadlock" && !strings.Contains(got, "lock-order cycle") {
				t.Errorf("deadlock example must report its cycle:\n%s", got)
			}
		})
	}
}
