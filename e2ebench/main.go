// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload from a workload seed, checks every output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output. README.md describes the workloads and the
// metrics; run.sh builds and runs it from the repository root:
//
//	bash e2ebench/run.sh --workload repro-hard --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// work holds the run's scratch state: the daemon probe's state
	// directory and the span dump of a traced run.
	work string
}

// workload is a closed loop with one caller over pre-built bundles:
// perProg recordings of each program.
type workload struct {
	progs   []string
	perProg int
	// probeClients makes a traced run also time the service and recorder
	// layers on its bundles (see probeDaemon and probeRecorder).
	probeClients bool
}

var workloads = map[string]workload{
	"repro-datarace": {dataRacePrograms, 24, true},
	"repro-hard":     {hardPrograms, 8, false},
}

// A run sets up at least setupRounds times and until the set-ups have
// taken setupFloor of CPU time in all, so a short set-up still gets a
// steady median; setup_s is the median.
const (
	setupRounds = 3
	setupFloor  = time.Second
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_cpu_ms_gmean", "ms"},
	{"preemptions_gmean", "count"},
	{"log_bytes_mean", "bytes"},
}

// perLayer lists the metrics every traced run prints, on every workload;
// a layer the workload does not call reads 0.
var perLayer = []metricDef{
	{"trace.overhead_pct", "%"},
	{"op.unattributed_pct", "%"},
	{"compile.ns", "ns"},
	{"trace.decode.ns", "ns"},
	{"trace.encode.ns", "ns"},
	{"trace.log.bytes", "bytes"},
	{"rehydrate.ns", "ns"},
	{"static.ns", "ns"},
	{"ballarus.paths.ns", "ns"},
	{"record.hunt.ns", "ns"},
	{"vm.runs", "count"},
	{"vm.native.ns", "ns"},
	{"vm.recorded.ns", "ns"},
	{"vm.record.overhead_x", "x"},
	{"symexec.ns", "ns"},
	{"constraints.saps", "count"},
	{"constraints.clauses", "count"},
	{"preprocess.ns", "ns"},
	{"preprocess.kept_ratio", "ratio"},
	{"solve.ns", "ns"},
	{"solve.share_min_pct", "%"},
	{"solve.attempts", "count"},
	{"solve.wasted.ns", "ns"},
	{"cnf.ns", "ns"},
	{"cnf.rounds", "count"},
	{"cnf.conflicts", "count"},
	{"solve.over_cnf_x", "x"},
	{"replay.ns", "ns"},
	{"replay.events", "count"},
	{"clapd.decode.ns", "ns"},
	{"clapd.ingest.ns", "ns"},
	{"clapd.queue.ns", "ns"},
	{"clapd.run.ns", "ns"},
	{"clapd.artifacts.ns", "ns"},
	{"clapd.dedupe_ratio", "ratio"},
}

// cpuTime is the CPU time the process has used so far, in all its
// threads. A kernel that accounts steal time (CONFIG_PARAVIRT_TIME_ACCOUNTING)
// leaves out the time a hypervisor gave to other guests, so on a shared
// virtual machine this moves much less with the neighbours' load than the
// wall clock does.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// outcome is what one measured run produced.
type outcome struct {
	attempted, failed int
	// samples holds the latencies of the ops that succeeded.
	samples []opSample
	// preemptions holds, per recording digest, the preemptions of its
	// first verified schedule.
	preemptions map[string]recordingPreemptions
	logBytes    float64
	// problems are failed ops and failed checks; any makes the run
	// incorrect.
	problems []string
}

func newOutcome() *outcome {
	return &outcome{preemptions: map[string]recordingPreemptions{}}
}

// fail counts a failed op.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problem(format, args...)
}

// problem records a failed check.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type recordingPreemptions struct {
	prog string
	n    int
}

func (o *outcome) notePreemptions(prog, digest string, n int) {
	if _, ok := o.preemptions[digest]; !ok {
		o.preemptions[digest] = recordingPreemptions{prog, n}
	}
}

// meanPreemptions is the mean over the recordings of prog.
func (o *outcome) meanPreemptions(prog string) float64 {
	var xs []float64
	for _, p := range o.preemptions {
		if p.prog == prog {
			xs = append(xs, float64(p.n))
		}
	}
	return mean(xs)
}

// preemptionsGmean is the geometric mean of 1 + preemptions over the
// recordings, less 1. Most schedules need 0 to 20 preemptions, but a
// recording the sequential backend cannot solve within the stagger is won
// by the CNF backend with 25 or more; such recordings are rare, so the
// arithmetic mean moves with how many of them a seed draws. The geometric
// mean still moves with a solve path that adds preemptions to most
// schedules.
func (o *outcome) preemptionsGmean() float64 {
	if len(o.preemptions) == 0 {
		return 0
	}
	var logs []float64
	for _, p := range o.preemptions {
		logs = append(logs, math.Log1p(float64(p.n)))
	}
	return math.Expm1(mean(logs))
}

// programReport is one program's share of a run, for the report line.
type programReport struct {
	Ops         int     `json:"ops"`
	MeanMS      float64 `json:"mean_ms"`
	MeanCPUMS   float64 `json:"mean_cpu_ms"`
	Recordings  int     `json:"recordings"`
	Preemptions float64 `json:"preemptions_mean"`
}

func (o *outcome) programs() map[string]programReport {
	out := map[string]programReport{}
	for _, s := range o.samples {
		if !s.traced {
			p := out[s.prog]
			p.Ops++
			p.MeanMS += ms(s.lat)
			p.MeanCPUMS += ms(s.cpu)
			out[s.prog] = p
		}
	}
	for _, r := range o.preemptions {
		p := out[r.prog]
		p.Recordings++
		out[r.prog] = p
	}
	for name, p := range out {
		if p.Ops > 0 {
			p.MeanMS /= float64(p.Ops)
			p.MeanCPUMS /= float64(p.Ops)
		}
		p.Preemptions = o.meanPreemptions(name)
		out[name] = p
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before the result: what was measured, for a reader.
// Wall-clock figures are here; the end-to-end metrics use CPU time.
type report struct {
	Workload    string    `json:"workload"`
	Seed        int64     `json:"seed"`
	Trace       bool      `json:"trace"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	Seconds     float64   `json:"seconds"`
	Inputs      int       `json:"inputs"`
	InputDigest string    `json:"input_digest"`
	SetupRounds int       `json:"setup_rounds"`
	SetupCPUS   []float64 `json:"setup_cpu_s_min_median_max"`
	SetupWallS  float64   `json:"setup_wall_s_median"`
	Samples     int       `json:"samples"`
	CPUGmeanMS  float64   `json:"op_cpu_ms_gmean"`
	GmeanMS     float64   `json:"op_ms_gmean"`
	// A pooled percentile is left out when fewer than minBeyond samples
	// rank above it.
	P50MS      *float64                 `json:"op_ms_p50,omitempty"`
	P90MS      *float64                 `json:"op_ms_p90,omitempty"`
	BeyondP50  int                      `json:"beyond_p50"`
	BeyondP90  int                      `json:"beyond_p90"`
	Recordings int                      `json:"recordings"`
	Programs   map[string]programReport `json:"programs"`
	Problems   []string                 `json:"problems,omitempty"`
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	cfg := config{}
	var seconds, traced int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&seconds, "seconds", 15, "measured seconds")
	fs.IntVar(&traced, "trace", 0, "1 for a traced run")
	fs.StringVar(&cfg.work, "work", ".bench_build/e2ebench", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return cfg, fmt.Errorf("--seconds must be at least 1")
	}
	if traced != 0 && traced != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = traced == 1
	return cfg, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	rep, res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, line := range []any{rep, res} {
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
	}
}

// run sets the workload up several times, keeps the last set-up, and
// measures once.
func run(cfg config) (*report, *result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, nil, err
	}
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seconds: cfg.seconds.Seconds()}
	var setupProblems []string
	var r *reproRunner
	var setups, walls []float64
	var spent float64
	for i := 0; i < setupRounds || spent < setupFloor.Seconds(); i++ {
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		var err error
		r, err = setup(workloads[cfg.workload], cfg.seed)
		setups = append(setups, (cpuTime() - c0).Seconds())
		walls = append(walls, time.Since(t0).Seconds())
		spent += setups[i]
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		n, digest := len(r.inputs), inputSetDigest(r.inputs)
		if i > 0 && digest != rep.InputDigest {
			setupProblems = append(setupProblems, fmt.Sprintf("set-up %d made input set %s, set-up 1 made %s", i+1, digest, rep.InputDigest))
		}
		rep.Inputs, rep.InputDigest = n, digest
	}
	sorted := append([]float64(nil), setups...)
	sort.Float64s(sorted)
	rep.SetupRounds = len(setups)
	rep.SetupCPUS = []float64{sorted[0], medianFloat(setups), sorted[len(sorted)-1]}
	rep.SetupWallS = medianFloat(walls)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	runtime.GC()
	out := r.run(cfg, tr)
	out.problems = append(setupProblems, out.problems...)

	lat := latencies(out.samples, false)
	rep.Samples = len(lat)
	rep.CPUGmeanMS = ms(gmean(out.samples, opCPU))
	rep.GmeanMS = ms(gmean(out.samples, opWall))
	rep.P50MS, rep.BeyondP50 = reportable(lat, 50)
	rep.P90MS, rep.BeyondP90 = reportable(lat, 90)
	rep.Recordings = len(out.preemptions)
	rep.Programs = out.programs()
	rep.Problems = out.problems
	if len(rep.Problems) > 20 {
		rep.Problems = append(rep.Problems[:20], fmt.Sprintf("... %d more", len(out.problems)-20))
	}
	res := &result{
		Correct:   len(out.problems) == 0 && len(out.samples) > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	if !cfg.trace {
		vals := map[string]float64{
			"setup_s":           medianFloat(setups),
			"op_cpu_ms_gmean":   rep.CPUGmeanMS,
			"preemptions_gmean": out.preemptionsGmean(),
			"log_bytes_mean":    out.logBytes,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
		return rep, res, nil
	}
	vals := layerValues(tr, out)
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, nil, err
	}
	return rep, res, nil
}

// reportable returns the p-th percentile of xs in milliseconds, or nil
// when fewer than minBeyond samples rank above it, and the number that do.
func reportable(xs []time.Duration, p int) (*float64, int) {
	n := beyond(len(xs), p)
	if n < minBeyond {
		return nil, n
	}
	v := ms(percentile(xs, p))
	return &v, n
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// layerValues derives the per-layer metrics from a traced run's spans and
// counts.
func layerValues(tr *tracer, out *outcome) map[string]float64 {
	v := map[string]float64{}
	for _, m := range perLayer {
		if name, ok := strings.CutSuffix(m.name, ".ns"); ok {
			v[m.name] = tr.layerNS(name)
		}
	}
	for name, xs := range tr.counts {
		v[name] = mean(xs)
	}
	v["trace.overhead_pct"] = 100 * tracingOverhead(out.samples)
	v["op.unattributed_pct"] = 100 * tr.unattributedShare("op")

	// solve.ns is core.Reproduce without replay, less the symbolic
	// execution and preprocessing that the op's probe timed on the same
	// recording.
	repro, sym, pre := tr.opNS("reproduce"), tr.opNS("symexec"), tr.opNS("preprocess")
	ops := map[int]int64{}
	for _, r := range tr.roots("op") {
		ops[r.Op] = r.dur()
	}
	var solves, shares []float64
	for op, d := range repro {
		s := max(d-sym[op]-pre[op], 0)
		solves = append(solves, float64(s))
		if total := ops[op]; total > 0 {
			shares = append(shares, 100*float64(s)/float64(total))
		}
	}
	v["solve.ns"] = mean(solves)
	if len(shares) > 0 {
		sort.Float64s(shares)
		v["solve.share_min_pct"] = shares[0]
	}
	if cnf := v["cnf.ns"]; cnf > 0 {
		v["solve.over_cnf_x"] = v["solve.ns"] / cnf
	}
	if native := v["vm.native.ns"]; native > 0 {
		v["vm.record.overhead_x"] = v["vm.recorded.ns"] / native
	}
	return v
}
