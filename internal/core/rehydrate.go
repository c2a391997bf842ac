// Rehydration: rebuilding a Recording from the artifacts a remote
// recorder ships — the program, its recorded path log, and the failure
// description — without re-running the bug hunt. This is the service
// ingestion path (internal/clapd): a field recorder uploads its CLAP log
// and the offline phases run server-side, exactly the paper's split
// between the lightweight in-production record phase and the heavyweight
// reproduction phases.
//
// Everything else a Recording carries is a pure function of the program
// (escape analysis, static lockset/happens-before results, Ball–Larus
// path tables), so the server recomputes it. The scheduler pins (seed,
// chaos, drain bias, action budget) are metadata the recorder observed;
// they are not needed to solve, only to re-run the winning seed for the
// flight-recorder timeline (Recording.CaptureEvents), which also serves
// as an integrity check: pins inconsistent with the program diverge
// there and are reported as errors rather than wrong artifacts.
package core

import (
	"fmt"

	"repro/internal/ballarus"
	"repro/internal/ir"
	"repro/internal/staticanalysis"
	"repro/internal/trace"
	"repro/internal/vm"
)

// RehydrateSpec is the recorded metadata accompanying an uploaded path
// log: which run it was (model, inputs), how it failed, and the
// scheduler pins of the winning attempt.
type RehydrateSpec struct {
	// Model is the memory model of the recorded run.
	Model vm.MemModel
	// Inputs are the run's deterministic program inputs.
	Inputs []int64
	// Log is the recorded CLAP path log (possibly a salvaged prefix of a
	// crash-truncated upload).
	Log *trace.PathLog
	// Failure locates the assertion violation to reproduce.
	Failure *vm.Failure
	// Seed, Chaos, DrainBias and MaxActions pin the recorded attempt's
	// scheduler configuration for CaptureEvents re-runs.
	Seed       int64
	Chaos      int
	DrainBias  int
	MaxActions int
	// NoDemote records that the recorder ran with demotion disabled, so
	// the re-run scheduler sees the same scheduling points.
	NoDemote bool
}

// Rehydrate rebuilds a Recording from an uploaded log and its metadata.
// The result drives Reproduce exactly like a locally recorded one; its
// Run summary is nil (the production run happened elsewhere).
func Rehydrate(prog *ir.Program, spec RehydrateSpec) (*Recording, error) {
	if prog == nil {
		return nil, fmt.Errorf("core: rehydrate needs a program")
	}
	if spec.Log == nil || len(spec.Log.Threads) == 0 {
		return nil, fmt.Errorf("core: rehydrate needs a non-empty path log")
	}
	if spec.Failure == nil {
		return nil, fmt.Errorf("core: rehydrate needs the recorded failure")
	}
	if spec.Failure.Kind != vm.FailAssert {
		return nil, fmt.Errorf("core: rehydrate reproduces assertion failures, got %s", spec.Failure.Kind)
	}
	static := staticanalysis.Analyze(prog)
	paths, err := ballarus.ProgramPaths(prog)
	if err != nil {
		return nil, err
	}
	var demoted []bool
	if !spec.NoDemote {
		demoted = demotedGlobals(static)
	}
	return &Recording{
		Prog:       prog,
		Model:      spec.Model,
		Inputs:     spec.Inputs,
		Sharing:    static.Sharing,
		Static:     static,
		Paths:      paths,
		Log:        spec.Log,
		Failure:    spec.Failure,
		Seed:       spec.Seed,
		Chaos:      spec.Chaos,
		DrainBias:  spec.DrainBias,
		MaxActions: spec.MaxActions,
		Demoted:    demoted,
	}, nil
}
