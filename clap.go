// Package repro is the public facade of the CLAP reproduction: recording
// thread-local executions and reproducing concurrency failures by symbolic
// constraint solving (Huang, Zhang, Dolby — PLDI 2013).
//
// The facade re-exports the pipeline from internal/core via type aliases,
// so external users work with the same types the internals use:
//
//	prog, _ := repro.Compile(src)
//	rec, _ := repro.Record(prog, repro.RecordOptions{Model: repro.PSO, SeedLimit: 5000})
//	rep, _ := repro.Reproduce(rec, repro.ReproduceOptions{Solver: repro.Sequential})
//	fmt.Println(rep.Solution.Preemptions, rep.Outcome.Reproduced)
//
// See README.md for the architecture and DESIGN.md for the per-experiment
// index.
package repro

import (
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
)

// Memory models of the recorded execution.
const (
	// SC is sequential consistency.
	SC = vm.SC
	// TSO is total store order (per-thread FIFO store buffer).
	TSO = vm.TSO
	// PSO is partial store order (per-thread per-address store buffers).
	PSO = vm.PSO
)

// Solver strategies.
const (
	// Sequential is the dedicated finite-domain decision procedure with
	// minimal-preemption iteration.
	Sequential = core.Sequential
	// Parallel is the generate-and-validate worker pool (paper §4.3).
	Parallel = core.Parallel
	// CNF is the SAT encoding with a CDCL core.
	CNF = core.CNF
	// Portfolio runs Sequential for a short head start, then CNF with the
	// rest of the budget, then Sequential again if CNF failed before the
	// deadline, recording the per-attempt trail in Reproduction.Attempts.
	Portfolio = core.Portfolio
)

// Re-exported pipeline types.
type (
	// Program is a compiled mini-language program.
	Program = ir.Program
	// MemModel selects SC, TSO or PSO.
	MemModel = vm.MemModel
	// RecordOptions configures the record phase.
	RecordOptions = core.RecordOptions
	// Recording is a recorded failing execution (the CLAP path log plus
	// run metadata).
	Recording = core.Recording
	// ReproduceOptions configures the offline phases.
	ReproduceOptions = core.ReproduceOptions
	// Reproduction is the end-to-end result: constraints, schedule,
	// witness and replay verdict.
	Reproduction = core.Reproduction
	// SolverKind selects the solving strategy.
	SolverKind = core.SolverKind
	// SolverAttempt is one solver stage's outcome in the attempt trail.
	SolverAttempt = core.SolverAttempt
	// NoFailureError reports a bug hunt that found no assertion failure,
	// with the per-chaos-level breakdown of what was tried.
	NoFailureError = core.NoFailureError
	// LevelStats is one chaos level's share of a bug hunt.
	LevelStats = core.LevelStats
)

// Compile parses, checks and lowers mini-language source.
func Compile(src string) (*Program, error) { return core.Compile(src) }

// Record hunts a failing schedule, logging only thread-local paths.
func Record(prog *Program, opts RecordOptions) (*Recording, error) {
	return core.Record(prog, opts)
}

// Reproduce runs symbolic analysis, constraint solving and verifying
// replay on a recorded failure.
func Reproduce(rec *Recording, opts ReproduceOptions) (*Reproduction, error) {
	return core.Reproduce(rec, opts)
}

// ReproduceSource is the one-call pipeline: compile, record, solve, replay.
func ReproduceSource(src string, recOpts RecordOptions, opts ReproduceOptions) (*Reproduction, error) {
	return core.ReproduceSource(src, recOpts, opts)
}
