package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/timeline"
)

// buildClap compiles the clap binary once per test run.
var buildClap = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "clapbin")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "clap")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		return "", &buildError{out: out, err: err}
	}
	return bin, nil
})

type buildError struct {
	out []byte
	err error
}

func (e *buildError) Error() string { return e.err.Error() + ": " + string(e.out) }

func clapBin(t *testing.T) string {
	t.Helper()
	bin, err := buildClap()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// noFailureProg never violates an assertion, so `clap reproduce` on it
// exhausts its seeds and exits nonzero.
const noFailureProg = `
int x;
func child() { x = 1; }
func main() {
	int h = spawn child();
	join(h);
}
`

const racyProg = `
int x;
func t1() {
	int r = x;
	x = r + 1;
}
func main() {
	int h = spawn t1();
	int r = x;
	x = r + 1;
	join(h);
	int v = x;
	assert(v == 2, "lost update");
}
`

// TestFailingRunStillWritesProfileAndMetrics pins the teardown contract:
// when the pipeline fails, the already-started CPU profile must still be
// stopped and flushed (a valid gzipped pprof file, not an empty or
// truncated one) and the -metrics-json report must still be written. The
// pre-fix code deferred teardown only on the success path out of main's
// os.Exit, losing both artifacts exactly when a failing run made them
// interesting.
func TestFailingRunStillWritesProfileAndMetrics(t *testing.T) {
	bin := clapBin(t)
	dir := t.TempDir()
	prog := filepath.Join(dir, "clean.mc")
	if err := os.WriteFile(prog, []byte(noFailureProg), 0o644); err != nil {
		t.Fatal(err)
	}
	profile := filepath.Join(dir, "cpu.pprof")
	metrics := filepath.Join(dir, "metrics.json")

	cmd := exec.Command(bin, "reproduce", prog, "-seeds", "5",
		"-cpuprofile", profile, "-metrics-json", metrics)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("reproduce of a failure-free program succeeded:\n%s", out)
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("clap did not run: %v\n%s", err, out)
	}

	prof, err := os.ReadFile(profile)
	if err != nil {
		t.Fatalf("CPU profile not written on the error path: %v", err)
	}
	if len(prof) == 0 {
		t.Fatal("CPU profile is empty: profiler never stopped/flushed")
	}
	if len(prof) < 2 || prof[0] != 0x1f || prof[1] != 0x8b {
		t.Fatalf("CPU profile is not gzipped pprof data (starts % x)", prof[:min(4, len(prof))])
	}

	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("metrics report not written on the error path: %v", err)
	}
	rep, err := obs.DecodeReport(data)
	if err != nil {
		t.Fatalf("metrics report does not parse: %v", err)
	}
	if rep.Span("record") == nil {
		t.Error("failed run's report lacks the record span")
	}
}

// TestProfileFlushedWhenLaterProfilerFailsToStart pins the startProfiles
// unwind: -cpuprofile arms first, then -trace fails to open its file. The
// already-running CPU profiler must be stopped and flushed before the
// error is reported; pre-fix it was abandoned mid-flight, leaving a
// zero-byte profile behind.
func TestProfileFlushedWhenLaterProfilerFailsToStart(t *testing.T) {
	bin := clapBin(t)
	dir := t.TempDir()
	prog := filepath.Join(dir, "clean.mc")
	if err := os.WriteFile(prog, []byte(noFailureProg), 0o644); err != nil {
		t.Fatal(err)
	}
	profile := filepath.Join(dir, "cpu.pprof")
	badTrace := filepath.Join(dir, "no-such-dir", "trace.out")

	out, err := exec.Command(bin, "reproduce", prog, "-seeds", "5",
		"-cpuprofile", profile, "-trace", badTrace).CombinedOutput()
	if err == nil {
		t.Fatalf("run succeeded despite unopenable -trace file:\n%s", out)
	}
	prof, err := os.ReadFile(profile)
	if err != nil {
		t.Fatalf("CPU profile missing after failed -trace setup: %v", err)
	}
	if len(prof) < 2 || prof[0] != 0x1f || prof[1] != 0x8b {
		t.Fatalf("CPU profile not flushed when a later profiler failed to start (%d bytes)", len(prof))
	}
}

// exitCode runs the built clap with args and returns its exit code.
func exitCode(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(clapBin(t), args...).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("clap did not run: %v\n%s", err, out)
	}
	return ee.ExitCode(), string(out)
}

// TestExitCodes pins the documented convention shared by every
// subcommand: 0 on success, 1 when the pipeline or a required check
// fails, 2 on usage errors.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "clean.mc")
	if err := os.WriteFile(prog, []byte(noFailureProg), 0o644); err != nil {
		t.Fatal(err)
	}
	metrics := filepath.Join(dir, "metrics.json")
	racy := filepath.Join(dir, "racy.mc")
	if err := os.WriteFile(racy, []byte(racyProg), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := exitCode(t, "reproduce", racy, "-metrics-json", metrics); code != 0 {
		t.Fatalf("reproduce exit %d:\n%s", code, out)
	}

	usage := [][]string{
		{},                    // no subcommand
		{"bogus"},             // unknown subcommand
		{"stats"},             // missing operand
		{"timeline"},          // missing operand
		{"explain", "a", "b"}, // too many operands
		{"reproduce", racy, "-nosuchflag"},
	}
	for _, args := range usage {
		if code, out := exitCode(t, args...); code != 2 {
			t.Errorf("clap %v: exit %d, want 2 (usage)\n%s", args, code, out)
		}
	}

	failures := [][]string{
		{"stats", metrics, "-require", "no.such.span"},
		{"reproduce", prog, "-seeds", "5"},
		{"explain", prog, "-seeds", "5"},
		{"timeline", prog, "-seeds", "5"},
	}
	for _, args := range failures {
		if code, out := exitCode(t, args...); code != 1 {
			t.Errorf("clap %v: exit %d, want 1 (failure)\n%s", args, code, out)
		}
	}
}

// TestReproduceCNFPrintsRefinementSplit pins the CNF summary line of
// `clap reproduce -solver cnf`: besides the encoding's size it splits the
// refinement work into order rejections, address splits, value checks and
// descents.
func TestReproduceCNFPrintsRefinementSplit(t *testing.T) {
	racy := filepath.Join(t.TempDir(), "racy.mc")
	if err := os.WriteFile(racy, []byte(racyProg), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := exitCode(t, "reproduce", racy, "-solver", "cnf")
	if code != 0 {
		t.Fatalf("reproduce exit %d:\n%s", code, out)
	}
	if !regexp.MustCompile(`cnf solver: \d+ bool vars, \d+ clauses; \d+ order rejections, \d+ address splits, \d+ value checks, \d+ descents`).MatchString(out) {
		t.Fatalf("no refinement split in the CNF summary:\n%s", out)
	}
}

// TestTimelineAndExplainCommands runs the flight-recorder subcommands on
// a racy source file: the timeline artifact must be valid trace-event
// JSON, byte-identical across two full pipeline runs, linked from the
// metrics report, and the explain report must show the schedule diff.
func TestTimelineAndExplainCommands(t *testing.T) {
	bin := clapBin(t)
	dir := t.TempDir()
	prog := filepath.Join(dir, "racy.mc")
	if err := os.WriteFile(prog, []byte(racyProg), 0o644); err != nil {
		t.Fatal(err)
	}
	tl1 := filepath.Join(dir, "tl1.json")
	tl2 := filepath.Join(dir, "tl2.json")
	metrics := filepath.Join(dir, "metrics.json")

	out, err := exec.Command(bin, "timeline", prog, "-o", tl1, "-metrics-json", metrics).CombinedOutput()
	if err != nil {
		t.Fatalf("timeline failed: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("lanes written")) {
		t.Errorf("timeline summary missing:\n%s", out)
	}
	data1, err := os.ReadFile(tl1)
	if err != nil {
		t.Fatal(err)
	}
	if err := timeline.Validate(data1); err != nil {
		t.Errorf("artifact is not valid trace-event JSON: %v", err)
	}

	if out, err := exec.Command(bin, "timeline", prog, "-o", tl2).CombinedOutput(); err != nil {
		t.Fatalf("second timeline run failed: %v\n%s", err, out)
	}
	data2, err := os.ReadFile(tl2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data1, data2) {
		t.Errorf("timeline JSON differs across runs on the same program: %d vs %d bytes", len(data1), len(data2))
	}

	// The metrics report links the artifact.
	mdata, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.DecodeReport(mdata)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Artifacts["timeline"] != tl1 {
		t.Errorf("report artifacts = %v, want timeline → %s", rep.Artifacts, tl1)
	}

	// Without -o: the ASCII rendering names the lanes.
	out, err = exec.Command(bin, "timeline", prog).CombinedOutput()
	if err != nil {
		t.Fatalf("ascii timeline failed: %v\n%s", err, out)
	}
	for _, lane := range []string{"recorded", "solved", "replay"} {
		if !bytes.Contains(out, []byte(lane)) {
			t.Errorf("ascii timeline missing %q lane:\n%s", lane, out)
		}
	}

	out, err = exec.Command(bin, "explain", prog).CombinedOutput()
	if err != nil {
		t.Fatalf("explain failed: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("schedule diff:")) {
		t.Errorf("explain output missing the schedule diff:\n%s", out)
	}
}

// TestMetricsReportAndStats runs a full reproduce with -metrics-json and
// checks the report has the five pipeline stage spans, every metric name
// is on the documented stable list, and `clap stats` both renders it
// deterministically and enforces -require.
func TestMetricsReportAndStats(t *testing.T) {
	bin := clapBin(t)
	dir := t.TempDir()
	prog := filepath.Join(dir, "racy.mc")
	if err := os.WriteFile(prog, []byte(racyProg), 0o644); err != nil {
		t.Fatal(err)
	}
	metrics := filepath.Join(dir, "metrics.json")
	out, err := exec.Command(bin, "reproduce", prog, "-metrics-json", metrics).CombinedOutput()
	if err != nil {
		t.Fatalf("reproduce failed: %v\n%s", err, out)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range []string{"record", "symexec", "preprocess", "solve", "replay"} {
		if rep.Span(span) == nil {
			t.Errorf("report lacks the %s stage span", span)
		}
	}
	for name := range rep.Counters {
		if !obs.IsStable(name) {
			t.Errorf("counter %q is not in obs.StableNames", name)
		}
	}
	for name := range rep.Gauges {
		if !obs.IsStable(name) {
			t.Errorf("gauge %q is not in obs.StableNames", name)
		}
	}

	stats := func() []byte {
		t.Helper()
		out, err := exec.Command(bin, "stats", metrics,
			"-require", "record,symexec,preprocess,solve,replay").CombinedOutput()
		if err != nil {
			t.Fatalf("clap stats failed: %v\n%s", err, out)
		}
		return out
	}
	one, two := stats(), stats()
	if !bytes.Equal(one, two) {
		t.Errorf("clap stats output is nondeterministic:\n--- first\n%s--- second\n%s", one, two)
	}
	if out, err := exec.Command(bin, "stats", metrics, "-require", "no.such.span").CombinedOutput(); err == nil {
		t.Errorf("stats -require accepted a missing span:\n%s", out)
	}
}
