// Command benchjson measures the offline pipeline per stage over the
// paper's eleven evaluation programs and writes a machine-readable
// BENCH_<date>T<hhmmss>.json snapshot (timestamped so two same-day runs
// never clobber each other), so perf changes leave a committed trajectory
// that successive snapshots can be diffed against.
//
// It drives the exact same stage runners (internal/bench.Stage*) as the
// repo-root `go test -bench BenchmarkStages` benchmarks through
// testing.Benchmark, so the JSON numbers and the -bench numbers measure
// identical code. On top of the stages it times the end-to-end portfolio
// solve (best of -reps repetitions).
//
// Usage:
//
//	go run ./cmd/benchjson                     # all eleven programs
//	go run ./cmd/benchjson -run peterson,racey # subset
//	go run ./cmd/benchjson -compare old.json new.json
//
// -compare diffs two snapshots: it prints a per-benchmark per-stage
// speedup table (old ns/op over new, with the alloc ratio alongside) for
// every stage measured in both, and exits non-zero when any such stage
// regressed by more than 10% in ns/op — the perf gate `make bench-compare`
// runs in CI. When both snapshots carry per-stage latency histograms an
// informational p99 line follows each stage row; the gate itself stays
// on mean ns/op.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solver"
)

// programs is the paper's eleven evaluation programs: the Table 1 set plus
// racey, the Table 3 stress test.
var programs = []string{
	"sim_race", "pbzip2", "aget", "bbuf", "swarm", "pfscan", "apache",
	"bakery", "dekker", "peterson", "racey",
}

// stageIters fixes each stage's iteration count (testing's -benchtime in
// "Nx" form). Counts, not durations: StagePreprocess rebuilds the system
// off the clock every iteration, so a duration-based budget on a
// microsecond-scale stage would ramp to thousands of iterations and spend
// minutes in untimed setup.
var stageIters = map[string]string{
	"build":      "10x",
	"preprocess": "20x",
	"sequential": "3x",
	"parsolve":   "3x",
	"cnf":        "3x",
}

// StageResult is one stage's measurement for one benchmark.
type StageResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Skipped marks stages that did not produce a measurement: the CNF
	// solver refusing an oversized system, or the bounded generator not
	// reaching the bug (racey, the paper's Table 3 negative result).
	Skipped bool `json:"skipped,omitempty"`
	// Counters holds the stage's per-stage counters under their stable
	// dotted names (internal/obs/names.go): search effort for the solver
	// stages, pruning counts for preprocess.
	Counters map[string]float64 `json:"counters,omitempty"`
	// Candidate-schedule counters, parsolve stage only. Kept for diffing
	// against clap-bench/1 snapshots; duplicates Counters["solver.par.*"].
	Generated float64 `json:"generated,omitempty"`
	Validated float64 `json:"validated,omitempty"`
	Valid     float64 `json:"valid,omitempty"`
	// LatencyHist is the per-iteration wall-time distribution
	// (stage.bench.<stage>.ns), so -compare can diff tail latency, not
	// just the mean ns/op. Additive to clap-bench/2; older snapshots
	// simply lack it.
	LatencyHist *obs.HistSnapshot `json:"latency_hist,omitempty"`
}

// StaticJSON summarizes the static lockset / happens-before analysis and
// its effect on constraint preprocessing for one benchmark.
type StaticJSON struct {
	SharedVars    int `json:"shared_vars"`
	ProtectedVars int `json:"protected_vars"`
	AccessSites   int `json:"access_sites"`
	Races         int `json:"races"`
	LockCycles    int `json:"lock_cycles"`
	// Frw read→write candidate edges before and after preprocessing, and
	// how many of the pruned edges the mutual-exclusion rule removed.
	FrwCandsBefore int `json:"frw_cands_before,omitempty"`
	FrwCandsAfter  int `json:"frw_cands_after,omitempty"`
	PrunedMutex    int `json:"pruned_mutex,omitempty"`
}

// BenchResult is one benchmark's full row.
type BenchResult struct {
	Name        string                 `json:"name"`
	SAPs        int                    `json:"saps"`
	Constraints int                    `json:"constraints"`
	Variables   int                    `json:"variables"`
	Static      *StaticJSON            `json:"static,omitempty"`
	Stages      map[string]StageResult `json:"stages"`
	// PortfolioWallNs is the best end-to-end portfolio solve wall time
	// (system build off the clock, preprocessing on it).
	PortfolioWallNs int64 `json:"portfolio_wall_ns"`
	// PortfolioSolver is the solving step ("sequential" or "cnf") of the
	// best repetition, or "" when no repetition solved.
	PortfolioSolver string `json:"portfolio_solver"`
	Err             string `json:"err,omitempty"`
}

// Report is the whole snapshot.
type Report struct {
	Schema     string        `json:"schema"`
	Date       string        `json:"date"`
	Mode       string        `json:"mode"`
	GoVersion  string        `json:"go"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

func main() {
	testing.Init()
	var (
		out     = flag.String("o", "", "output file (default BENCH_<date>T<hhmmss>.json)")
		run     = flag.String("run", "", "comma-separated benchmark subset (default: all eleven)")
		reps    = flag.Int("reps", 3, "portfolio repetitions (best wall time wins)")
		compare = flag.Bool("compare", false, "diff two snapshots (old.json new.json); exit 1 on a >10% ns/op stage regression")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two snapshot files: old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	}

	names := programs
	if *run != "" {
		names = strings.Split(*run, ",")
	}
	path := *out
	if path == "" {
		// Include the time of day so two same-day runs never clobber each
		// other's snapshot.
		path = "BENCH_" + time.Now().Format("2006-01-02T150405") + ".json"
	}

	rep := Report{
		Schema:     "clap-bench/2",
		Date:       time.Now().Format("2006-01-02"),
		Mode:       "current",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "== %s\n", name)
		rep.Benchmarks = append(rep.Benchmarks, measure(name, *reps))
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", path, len(rep.Benchmarks))
}

func measure(name string, reps int) BenchResult {
	res := BenchResult{Name: name, Stages: map[string]StageResult{}}
	b, ok := bench.ByName(name)
	if !ok {
		res.Err = "unknown benchmark"
		return res
	}
	p, err := bench.Prepare(b)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	// The stage runners feed each timed iteration into this registry's
	// stage.bench.<stage>.ns histograms.
	lat := obs.NewRegistry()
	p.Lat = lat
	res.SAPs = p.Stats.SAPs
	res.Constraints = p.Stats.Clauses
	res.Variables = p.Stats.Variables

	sys, err := bench.FreshSystem(p)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if static := p.Recording.Static; static != nil {
		st := static.ComputeStats()
		res.Static = &StaticJSON{
			SharedVars:    st.SharedVars,
			ProtectedVars: st.ProtectedVars,
			AccessSites:   st.AccessSites,
			Races:         st.Races,
			LockCycles:    st.Cycles,
		}
		if sys.Pre != nil {
			res.Static.FrwCandsBefore = sys.Pre.CandsBefore
			res.Static.FrwCandsAfter = sys.Pre.CandsAfter
			res.Static.PrunedMutex = sys.Pre.PrunedMutex
		}
	}

	stages := map[string]func(*testing.B){
		"build":      bench.StageBuild(p),
		"preprocess": bench.StagePreprocess(p),
		"sequential": bench.StageSequential(p, sys),
		"parsolve":   bench.StageParsolve(p, sys),
		"cnf":        bench.StageCNF(p, sys),
	}
	for _, stage := range []string{"build", "preprocess", "sequential", "parsolve", "cnf"} {
		fn := stages[stage]
		fmt.Fprintf(os.Stderr, "   %-11s", stage)
		sr := runStage(stage, fn)
		if hs, ok := lat.TakeSnapshot().Hists["stage.bench."+stage+".ns"]; ok && hs.Count > 0 {
			sr.LatencyHist = &hs
		}
		res.Stages[stage] = sr
		if sr.Skipped {
			fmt.Fprintf(os.Stderr, " skipped\n")
		} else {
			fmt.Fprintf(os.Stderr, " %12.0f ns/op %10d allocs/op\n", sr.NsPerOp, sr.AllocsPerOp)
		}
	}

	wall, winner := portfolioWall(p, reps)
	res.PortfolioWallNs = wall.Nanoseconds()
	res.PortfolioSolver = winner
	fmt.Fprintf(os.Stderr, "   portfolio   %12d ns (%s)\n", res.PortfolioWallNs, winner)
	return res
}

// runStage measures one stage through testing.Benchmark with the stage's
// fixed iteration count. A zero-iteration result means the runner skipped
// (b.Skipf) or failed (b.Fatal); either way there is no measurement.
func runStage(stage string, fn func(*testing.B)) StageResult {
	if iters, ok := stageIters[stage]; ok {
		if err := flag.Set("test.benchtime", iters); err != nil {
			panic(err)
		}
	}
	r := testing.Benchmark(fn)
	if r.N == 0 {
		return StageResult{Skipped: true}
	}
	sr := StageResult{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Generated:   r.Extra["solver.par.generated"],
		Validated:   r.Extra["solver.par.validated"],
		Valid:       r.Extra["solver.par.valid"],
	}
	if len(r.Extra) > 0 {
		sr.Counters = map[string]float64{}
		for k, v := range r.Extra {
			sr.Counters[k] = v
		}
	}
	return sr
}

// regressionTolerance is the relative ns/op growth -compare accepts per
// stage before failing: benchmark noise sits well under it, a real perf
// regression does not.
const regressionTolerance = 0.10

// loadReport reads and decodes a benchjson snapshot. Both clap-bench/1
// and clap-bench/2 snapshots decode: the fields -compare consumes are
// common to both schemas.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !strings.HasPrefix(r.Schema, "clap-bench/") {
		return nil, fmt.Errorf("%s: schema %q is not a benchjson snapshot", path, r.Schema)
	}
	return &r, nil
}

// runCompare prints the per-benchmark per-stage speedup table between two
// snapshots and returns the process exit code: 1 when any stage measured
// in both snapshots regressed by more than regressionTolerance in ns/op,
// 0 otherwise.
func runCompare(oldPath, newPath string) int {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	if oldRep.Mode != newRep.Mode {
		fmt.Fprintf(os.Stderr, "benchjson: comparing mode %q against %q — speedups reflect the mode change too\n",
			oldRep.Mode, newRep.Mode)
	}
	_, regressions := compareReports(os.Stdout, oldRep, newRep)
	if regressions > 0 {
		return 1
	}
	return 0
}

// canonicalStages fixes the display order of the pipeline's own stages;
// stage names present in a snapshot but not listed here (from a newer or
// older benchjson) sort after them alphabetically.
var canonicalStages = []string{"build", "preprocess", "sequential", "parsolve", "cnf"}

// stageUnion returns every stage name appearing in either map: the
// canonical pipeline order first, then unknown names sorted. Snapshots
// from different benchjson versions therefore diff without erroring —
// a stage only one side has shows up as added/removed, not a crash.
func stageUnion(a, b map[string]StageResult) []string {
	seen := map[string]bool{}
	var names []string
	for _, s := range canonicalStages {
		_, ina := a[s]
		_, inb := b[s]
		if ina || inb {
			names = append(names, s)
			seen[s] = true
		}
	}
	var extra []string
	for s := range a {
		if !seen[s] {
			extra = append(extra, s)
			seen[s] = true
		}
	}
	for s := range b {
		if !seen[s] {
			extra = append(extra, s)
			seen[s] = true
		}
	}
	sort.Strings(extra)
	return append(names, extra...)
}

// compareReports writes the per-benchmark per-stage speedup table and
// returns how many stages were compared and how many regressed beyond
// regressionTolerance. Stages present in only one snapshot are reported
// as "added"/"removed" and never gate; stages present in both but skipped
// on one side are likewise reported without gating — a stage newly
// skipped is a behavior change for the equivalence tests, not the perf
// gate, to catch.
func compareReports(w io.Writer, oldRep, newRep *Report) (compared, regressions int) {
	oldBy := map[string]BenchResult{}
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}

	fmt.Fprintf(w, "%-10s %-11s %14s %14s %8s %8s  %s\n",
		"benchmark", "stage", "old ns/op", "new ns/op", "speedup", "allocs", "verdict")
	for _, nb := range newRep.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Fprintf(w, "%-10s only in new snapshot\n", nb.Name)
			continue
		}
		for _, stage := range stageUnion(ob.Stages, nb.Stages) {
			ns, nok := nb.Stages[stage]
			osr, ook := ob.Stages[stage]
			switch {
			case !ook:
				fmt.Fprintf(w, "%-10s %-11s %14s %14.0f %8s %8s  added\n",
					nb.Name, stage, "-", ns.NsPerOp, "-", "-")
				continue
			case !nok:
				fmt.Fprintf(w, "%-10s %-11s %14.0f %14s %8s %8s  removed\n",
					nb.Name, stage, osr.NsPerOp, "-", "-", "-")
				continue
			}
			oldOK := !osr.Skipped
			newOK := !ns.Skipped
			switch {
			case !oldOK && !newOK:
				continue // unmeasured on both sides: nothing to say
			case !oldOK:
				fmt.Fprintf(w, "%-10s %-11s %14s %14.0f %8s %8s  no old measurement\n",
					nb.Name, stage, "-", ns.NsPerOp, "-", "-")
				continue
			case !newOK:
				fmt.Fprintf(w, "%-10s %-11s %14.0f %14s %8s %8s  skipped in new snapshot\n",
					nb.Name, stage, osr.NsPerOp, "-", "-", "-")
				continue
			}
			compared++
			speedup := osr.NsPerOp / ns.NsPerOp
			allocs := "-"
			if ns.AllocsPerOp > 0 {
				allocs = fmt.Sprintf("%.2fx", float64(osr.AllocsPerOp)/float64(ns.AllocsPerOp))
			}
			verdict := "ok"
			if ns.NsPerOp > osr.NsPerOp*(1+regressionTolerance) {
				verdict = fmt.Sprintf("REGRESSION (+%.0f%%)", (ns.NsPerOp/osr.NsPerOp-1)*100)
				regressions++
			}
			fmt.Fprintf(w, "%-10s %-11s %14.0f %14.0f %7.2fx %8s  %s\n",
				nb.Name, stage, osr.NsPerOp, ns.NsPerOp, speedup, allocs, verdict)
			// Tail-latency diff, informational only: the gate stays on
			// mean ns/op. Printed when both snapshots carry histograms
			// (clap-bench/2 with latency_hist); older snapshots lack them.
			if osr.LatencyHist != nil && ns.LatencyHist != nil {
				oldP99 := osr.LatencyHist.P99()
				newP99 := ns.LatencyHist.P99()
				ratio := "-"
				if newP99 > 0 {
					ratio = fmt.Sprintf("%.2fx", float64(oldP99)/float64(newP99))
				}
				fmt.Fprintf(w, "%-10s %-11s %14d %14d %8s %8s  p99 latency\n",
					"", "  p99", oldP99, newP99, ratio, "-")
			}
		}
	}
	fmt.Fprintf(w, "\n%d stages compared, %d regressions (tolerance %.0f%%)\n",
		compared, regressions, regressionTolerance*100)
	return compared, regressions
}

// portfolioWall times the end-to-end portfolio solve: a fresh system build
// per repetition off the clock, then preprocessing plus the portfolio on
// the clock. Best wall time of the solving repetitions wins; the winner is
// the trail's first solved attempt.
func portfolioWall(p *bench.Prepared, reps int) (time.Duration, string) {
	best := time.Duration(-1)
	winner := ""
	for i := 0; i < reps; i++ {
		sys, err := p.Recording.Analyze()
		if err != nil {
			continue
		}
		t0 := time.Now()
		sol, attempts, err := core.RunPortfolio(sys, core.ReproduceOptions{
			SeqOptions: solver.Options{MaxPreemptions: p.Bench.MaxPreemptions},
			Deadline:   20 * time.Second,
		})
		wall := time.Since(t0)
		if err != nil || sol == nil {
			continue
		}
		if best < 0 || wall < best {
			best = wall
			winner = ""
			for _, a := range attempts {
				if a.Outcome == "solved" {
					winner = a.Solver
					break
				}
			}
		}
	}
	if best < 0 {
		return 0, ""
	}
	return best, winner
}
