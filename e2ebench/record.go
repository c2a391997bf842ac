package main

import (
	"fmt"

	"repro/internal/ballarus"
	"repro/internal/bench"
	"repro/internal/clapd"
	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/obs"
	"repro/internal/staticanalysis"
	"repro/internal/trace"
	"repro/internal/vm"
)

// huntTraced is the client half of `clap bundle` (compile, hunt, encode
// the framed log) from hunt base base, with a span per layer call under a
// "hunt" root. It then probes the layers the hunt calls internally: the
// static analyses, path numbering, and the winning seed run without and
// with the path recorder.
func huntTraced(tr *tracer, op int, b bench.Benchmark, base int64) (*core.Recording, []byte, error) {
	r := tr.start(op, -1, "hunt")
	tr.label(r, b.Name, fmt.Sprint(base))
	s := tr.start(op, r, "compile")
	prog, err := core.Compile(b.Source)
	tr.end(s)
	if err != nil {
		tr.end(r)
		return nil, nil, err
	}
	hobs := obs.NewTrace("e2ebench")
	opts := recordOptions(b, base)
	opts.Obs = hobs
	s = tr.start(op, r, "record.hunt")
	rec, err := core.Record(prog, opts)
	tr.end(s)
	if err != nil {
		tr.end(r)
		return nil, nil, err
	}
	s = tr.start(op, r, "trace.encode")
	framed := rec.Log.EncodeFramed(trace.FramedOptions{})
	tr.end(s)
	tr.end(r)
	tr.count("trace.log.bytes", float64(len(framed)))
	tr.count("vm.runs", float64(hobs.Reg().Get("record.seeds")))

	p := tr.start(op, -1, "probe")
	defer tr.end(p)
	s = tr.start(op, p, "trace.decode")
	trace.DecodePathLogSalvage(framed)
	tr.end(s)
	s = tr.start(op, p, "static")
	escape.Analyze(prog)
	staticanalysis.Analyze(prog)
	tr.end(s)
	s = tr.start(op, p, "ballarus.paths")
	ballarus.ProgramPaths(prog)
	tr.end(s)
	// An untimed round of both re-runs first keeps either from paying for
	// the other's cold start, and every other op runs them in the other
	// order, so neither always goes first.
	order := []string{"vm.native", "vm.recorded"}
	if op%2 == 1 {
		order[0], order[1] = order[1], order[0]
	}
	for _, timed := range []bool{false, true} {
		for _, name := range order {
			t := tr.now()
			err := rerun(rec, name == "vm.recorded")
			if timed {
				tr.add(op, p, name, t, tr.now())
			}
			if err != nil {
				return nil, nil, fmt.Errorf("%s re-run: %w", name, err)
			}
		}
	}
	return rec, framed, nil
}

// rerun executes the recording's winning seed again under the scheduler
// configuration the hunt used, with or without the path recorder, and
// checks it fails the same way.
func rerun(rec *core.Recording, record bool) error {
	sched := vm.NewRandomScheduler(rec.Seed)
	if rec.Chaos > 0 {
		sched.Chaos = rec.Chaos
	}
	if rec.DrainBias > 0 {
		sched.DrainBias = rec.DrainBias
	}
	conf := vm.Config{
		Model:      rec.Model,
		Inputs:     rec.Inputs,
		MaxActions: rec.MaxActions,
		Sched:      sched,
		Shared:     rec.Sharing.Shared,
		Demoted:    rec.Demoted,
	}
	if record {
		conf.PathRecorder = &vm.PathRecorder{Paths: rec.Paths, Log: &trace.PathLog{}}
	}
	m, err := vm.New(rec.Prog, conf)
	if err != nil {
		return err
	}
	res, err := m.Run()
	if err != nil {
		return err
	}
	if f := res.Failure; f == nil || f.Thread != rec.Failure.Thread || f.Site != rec.Failure.Site {
		return fmt.Errorf("diverged: recorded %v, re-run %v", rec.Failure, f)
	}
	return nil
}

// probeRecorder times the recorder's layers on a reproduction workload's
// programs: it hunts again from the hunt base of each program's first
// input, which must record that input's bundle. Op ids start at op0; it
// returns the failed checks.
func probeRecorder(tr *tracer, op0 int, inputs []input) []string {
	var problems []string
	done := map[string]bool{}
	for _, x := range inputs {
		if done[x.Program] {
			continue
		}
		done[x.Program] = true
		b, err := benchmark(x.Program)
		if err != nil {
			return append(problems, err.Error())
		}
		rec, framed, err := huntTraced(tr, op0+len(done), b, x.Base)
		if err == nil {
			err = checkRecording(rec, framed)
		}
		if err == nil {
			if d := clapd.FromRecording(rec, b.Source, b.Name, "").Digest(); d != x.Digest {
				err = fmt.Errorf("recorded %.12s, set-up recorded %.12s", d, x.Digest)
			}
		}
		if err != nil {
			problems = append(problems, fmt.Sprintf("recorder probe %s at %d: %v", x.Program, x.Base, err))
		}
	}
	return problems
}
