package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/ballarus"
	"repro/internal/clapd"
	"repro/internal/cnfsolver"
	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/replay"
	"repro/internal/staticanalysis"
	"repro/internal/trace"
	"repro/internal/vm"
)

// opDeadline bounds one reproduction. Any deadline above 1.5s leaves the
// solver's stage stagger at its default, so this only stops a hung op.
const opDeadline = 30 * time.Second

// reproResult is one verified reproduction, or why it failed.
type reproResult struct {
	lat, cpu    time.Duration
	preemptions int
	err         error
}

// verify checks a finished reproduction: the replay reproduced the
// recorded failure within the op's deadline.
func verify(rep *core.Reproduction, lat time.Duration) reproResult {
	switch {
	case rep.Outcome == nil || !rep.Outcome.Reproduced:
		return reproResult{err: fmt.Errorf("replay did not reproduce the failure")}
	case lat > opDeadline:
		return reproResult{err: fmt.Errorf("took %v, past the %v deadline", lat, opDeadline)}
	}
	return reproResult{lat: lat, preemptions: rep.Solution.Preemptions}
}

// reproduce is the offline path a clapd worker runs on an uploaded bundle,
// with the solver an empty bundle field selects. It measures the op's wall
// time and the CPU time the process spent on it.
func reproduce(raw []byte, kind core.SolverKind) reproResult {
	t0, c0 := time.Now(), cpuTime()
	b, err := clapd.DecodeBundle(raw, 0)
	if err != nil {
		return reproResult{err: err}
	}
	rec, _, err := b.Rehydrate()
	if err != nil {
		return reproResult{err: err}
	}
	rep, err := core.Reproduce(rec, core.ReproduceOptions{Solver: kind, Deadline: opDeadline})
	lat, cpu := time.Since(t0), cpuTime()-c0
	if err != nil {
		return reproResult{err: err}
	}
	res := verify(rep, lat)
	res.cpu = cpu
	return res
}

// reproduceTraced makes the calls of reproduce one layer at a time, each
// under a child span of an op root named root, then probes the layers
// whose calls happen inside core.Reproduce. capture keeps the replay's
// events, which the flight-recorder timeline needs.
func reproduceTraced(tr *tracer, op int, root string, x input, kind core.SolverKind, capture bool) (*core.Reproduction, reproResult) {
	t0 := time.Now()
	r := tr.start(op, -1, root)
	tr.label(r, x.Program, x.Digest)
	fail := func(err error) (*core.Reproduction, reproResult) {
		tr.end(r)
		return nil, reproResult{err: err}
	}
	s := tr.start(op, r, "clapd.decode")
	b, err := clapd.DecodeBundle(x.Raw, 0)
	tr.end(s)
	if err != nil {
		return fail(err)
	}
	s = tr.start(op, r, "compile")
	prog, err := core.Compile(b.Program)
	tr.end(s)
	if err != nil {
		return fail(err)
	}
	s = tr.start(op, r, "trace.decode")
	log, _ := trace.DecodePathLogSalvage(b.Log)
	tr.end(s)
	model, err := clapd.ParseModel(b.Model)
	if err != nil {
		return fail(err)
	}
	s = tr.start(op, r, "rehydrate")
	rec, err := core.Rehydrate(prog, core.RehydrateSpec{
		Model:  model,
		Inputs: b.Inputs,
		Log:    log,
		Failure: &vm.Failure{
			Kind:   vm.FailAssert,
			Thread: vm.ThreadID(b.FailureThread),
			Site:   b.FailureSite,
			Msg:    b.FailureMsg,
		},
		Seed:       b.Seed,
		Chaos:      b.Chaos,
		DrainBias:  b.DrainBias,
		MaxActions: b.MaxActions,
		NoDemote:   b.NoDemote,
	})
	tr.end(s)
	if err != nil {
		return fail(err)
	}
	s = tr.start(op, r, "reproduce")
	rep, err := core.Reproduce(rec, core.ReproduceOptions{Solver: kind, Deadline: opDeadline, SkipReplay: true})
	tr.end(s)
	if err != nil {
		return fail(err)
	}
	s = tr.start(op, r, "replay")
	out, err := replay.Run(rep.System, rep.Solution, replay.Options{
		Mode:     replay.ModeFor(rec.Model),
		Inputs:   rec.Inputs,
		Deadline: opDeadline - time.Since(t0),
		Capture:  capture,
	})
	tr.end(s)
	lat := time.Since(t0)
	if err != nil {
		return fail(err)
	}
	tr.end(r)
	rep.Outcome = out

	tr.count("trace.log.bytes", float64(len(b.Log)))
	tr.count("constraints.saps", float64(rep.Stats.SAPs))
	tr.count("constraints.clauses", float64(rep.Stats.Clauses))
	tr.count("solve.attempts", float64(len(rep.Attempts)))
	tr.count("solve.wasted.ns", float64(wasted(rep.Attempts)))
	tr.count("replay.events", float64(out.EventsMatched))
	probeLayers(tr, op, rec)
	return rep, verify(rep, lat)
}

// wasted sums the wall time of the attempts that did not produce the
// schedule: every entry but the first solved one.
func wasted(attempts []core.SolverAttempt) time.Duration {
	var sum time.Duration
	won := false
	for _, a := range attempts {
		if a.Outcome == "solved" && !won {
			won = true
			continue
		}
		sum += a.Elapsed
	}
	return sum
}

// probeLayers times, outside the op, the layers core.Rehydrate and
// core.Reproduce call internally: the static analyses, symbolic
// execution, preprocessing, and the CNF backend alone on the fresh
// preprocessed system.
func probeLayers(tr *tracer, op int, rec *core.Recording) {
	p := tr.start(op, -1, "probe")
	defer tr.end(p)
	s := tr.start(op, p, "static")
	escape.Analyze(rec.Prog)
	staticanalysis.Analyze(rec.Prog)
	tr.end(s)
	s = tr.start(op, p, "ballarus.paths")
	_, err := ballarus.ProgramPaths(rec.Prog)
	tr.end(s)
	if err != nil {
		return
	}
	s = tr.start(op, p, "symexec")
	sys, err := rec.Analyze()
	tr.end(s)
	if err != nil {
		return
	}
	s = tr.start(op, p, "preprocess")
	pre := sys.Preprocess()
	tr.end(s)
	if pre.CandsBefore > 0 {
		tr.count("preprocess.kept_ratio", float64(pre.CandsAfter)/float64(pre.CandsBefore))
	}
	s = tr.start(op, p, "cnf")
	_, st, err := cnfsolver.Solve(sys, cnfsolver.Options{Deadline: opDeadline})
	tr.end(s)
	if err == nil && st != nil {
		tr.count("cnf.rounds", float64(st.SATSolves))
		tr.count("cnf.conflicts", float64(st.SATConflicts))
	}
}

// reproRunner is a workload after set-up.
type reproRunner struct {
	inputs       []input
	kind         core.SolverKind
	probeClients bool
}

// setup records the workload's bundles from the seed and resolves the
// solver the way clapd resolves an empty bundle field.
func setup(w workload, seed int64) (*reproRunner, error) {
	in, err := makeBundles(w.progs, w.perProg, seed)
	if err != nil {
		return nil, err
	}
	kind, err := clapd.SolverKind("")
	if err != nil {
		return nil, err
	}
	return &reproRunner{inputs: shuffled(in, seed), kind: kind, probeClients: w.probeClients}, nil
}

// run warms up, measures for cfg.seconds, and checks the outputs. A
// non-nil tracer makes it a traced run.
func (r *reproRunner) run(cfg config, tr *tracer) *outcome {
	out := newOutcome()
	out.logBytes = meanLogBytes(r.inputs)
	// Untimed warm-up: one reproduction per program.
	warmed := map[string]bool{}
	for _, x := range r.inputs {
		if !warmed[x.Program] {
			warmed[x.Program] = true
			if res := reproduce(x.Raw, r.kind); res.err != nil {
				out.problem("warm-up %s %.12s: %v", x.Program, x.Digest, res.err)
			}
		}
	}
	runtime.GC()
	n := len(r.inputs)
	start := time.Now()
	for i := 0; time.Since(start) < cfg.seconds; i++ {
		x := r.inputs[i%n]
		// A traced run reproduces each input twice back to back, traced
		// and untraced, with every other input traced first, so the two
		// differ only by the tracing.
		modes := []bool{false}
		if tr != nil {
			modes = []bool{i%2 == 1, i%2 == 0}
		}
		for _, traced := range modes {
			var res reproResult
			if traced {
				_, res = reproduceTraced(tr, i, "op", x, r.kind, false)
			} else {
				res = reproduce(x.Raw, r.kind)
			}
			out.attempted++
			if res.err != nil {
				out.fail("%s %.12s: %v", x.Program, x.Digest, res.err)
				continue
			}
			out.samples = append(out.samples, opSample{prog: x.Program, input: x.Digest, lat: res.lat, cpu: res.cpu, traced: traced})
			out.notePreemptions(x.Program, x.Digest, res.preemptions)
		}
	}
	// Every recording counts once in preemptions_gmean, whether or not the
	// window reached it.
	for _, x := range r.inputs {
		if _, ok := out.preemptions[x.Digest]; ok {
			continue
		}
		res := reproduce(x.Raw, r.kind)
		if res.err != nil {
			out.problem("check %s %.12s: %v", x.Program, x.Digest, res.err)
			continue
		}
		out.notePreemptions(x.Program, x.Digest, res.preemptions)
	}
	if tr != nil && r.probeClients {
		next, problems := probeDaemon(tr, cfg.work, out.attempted, r.inputs[:min(daemonProbes, n)], r.kind)
		problems = append(problems, probeRecorder(tr, next, r.inputs)...)
		for _, p := range problems {
			out.problem("%s", p)
		}
	}
	return out
}
