// Package clapd is the reproduction-as-a-service daemon: a long-running
// HTTP server that ingests recorded trace bundles, dedupes them by
// content digest into an on-disk store, and runs the offline pipeline
// (symbolic execution → constraint solving → replay) as durable jobs on
// a bounded worker pool.
//
// Robustness is the design center, in the spirit of the paper's premise
// that the recorded process crashes: the service ingesting those crashes
// must itself survive crashes, overload and corrupt inputs.
//
//   - Durability: every accepted job is fsynced into a write-ahead
//     journal before the client sees 201; restart recovery replays the
//     journal and re-queues (or poisons) interrupted jobs. A job reaches
//     exactly one terminal state — crash-anywhere chaos tests in
//     cmd/clap enforce it with injected kill -9s.
//   - Backpressure: admission control bounds the active-job count;
//     saturated ingests get 429 + Retry-After instead of unbounded
//     queues, and duplicate digests are shed to the cached result.
//   - Corrupt inputs: uploads are size-capped and must carry the framed
//     log format; damaged logs route through the salvage decoder
//     (internal/trace) instead of killing a worker.
package clapd

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/vm"
)

// BundleSchema identifies the ingest wire format.
const BundleSchema = "clap-bundle/1"

// DefaultMaxBundleBytes caps an upload (bundle JSON including the
// base64 log) unless Config.MaxUploadBytes overrides it.
const DefaultMaxBundleBytes = 8 << 20

// Bundle is one uploaded reproduction request: the recorded program, the
// crash-tolerant framed path log, the failure to reproduce, and the
// scheduler pins of the winning recorded attempt. It is what `clap
// bundle` emits and POST /v1/jobs accepts.
type Bundle struct {
	Schema string `json:"schema"`
	// Name is a display name (benchmark or source file); not part of the
	// content digest.
	Name    string  `json:"name,omitempty"`
	Program string  `json:"program"`
	Model   string  `json:"model"`
	Inputs  []int64 `json:"inputs,omitempty"`
	// Solver selects the offline backend (par|cnf|portfolio; empty and
	// the legacy "seq" = portfolio).
	Solver string `json:"solver,omitempty"`

	// Scheduler pins of the recorded attempt (core.RehydrateSpec).
	Seed       int64 `json:"seed"`
	Chaos      int   `json:"chaos,omitempty"`
	DrainBias  int   `json:"drain_bias,omitempty"`
	MaxActions int   `json:"max_actions,omitempty"`
	NoDemote   bool  `json:"no_demote,omitempty"`

	// The recorded assertion failure.
	FailureThread int    `json:"failure_thread"`
	FailureSite   int    `json:"failure_site"`
	FailureMsg    string `json:"failure_msg,omitempty"`

	// Log is the framed path log (base64 on the wire via encoding/json).
	Log []byte `json:"log"`
}

// BadBundleError rejects a malformed upload. It maps to HTTP 400: the
// client sent garbage, retrying the same bytes cannot succeed.
type BadBundleError struct{ Reason string }

func (e *BadBundleError) Error() string { return "clapd: bad bundle: " + e.Reason }

func badBundle(format string, args ...any) error {
	return &BadBundleError{Reason: fmt.Sprintf(format, args...)}
}

// TooLargeError rejects an oversized upload before any decoding
// allocates proportionally to it. It maps to HTTP 413.
type TooLargeError struct{ Size, Limit int64 }

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("clapd: bundle of %dB exceeds the %dB limit", e.Size, e.Limit)
}

// DecodeBundle parses and validates an uploaded bundle. maxBytes caps
// the raw input (<=0 = DefaultMaxBundleBytes); the embedded log must be
// in the framed format — the all-or-nothing flat encoding has no salvage
// story, so the service refuses it early with a typed error instead of
// letting a decoder chew on unbounded garbage.
//
// The log bytes are NOT decoded here: digesting and admission work on
// raw bytes, and only a worker pays for the salvage decode.
func DecodeBundle(raw []byte, maxBytes int64) (*Bundle, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBundleBytes
	}
	if int64(len(raw)) > maxBytes {
		return nil, &TooLargeError{Size: int64(len(raw)), Limit: maxBytes}
	}
	var b Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, badBundle("%v", err)
	}
	if b.Schema != BundleSchema {
		return nil, badBundle("unknown schema %q (want %q)", b.Schema, BundleSchema)
	}
	if strings.TrimSpace(b.Program) == "" {
		return nil, badBundle("empty program")
	}
	if _, err := ParseModel(b.Model); err != nil {
		return nil, badBundle("%v", err)
	}
	if _, err := SolverKind(b.Solver); err != nil {
		return nil, badBundle("%v", err)
	}
	if len(b.Log) == 0 {
		return nil, badBundle("empty log")
	}
	if !trace.IsFramed(b.Log) {
		return nil, badBundle("log is not in the framed format (flat logs have no salvage story; re-record with clap record -o / clap bundle)")
	}
	return &b, nil
}

// ParseModel maps a bundle's model name to the VM's memory model.
func ParseModel(name string) (vm.MemModel, error) {
	switch strings.ToUpper(name) {
	case "SC":
		return vm.SC, nil
	case "TSO":
		return vm.TSO, nil
	case "PSO":
		return vm.PSO, nil
	}
	return 0, fmt.Errorf("unknown memory model %q", name)
}

// SolverKind maps a solver name, a bundle's field or clap's -solver flag,
// to the pipeline's solver kind. "seq" named the sequential search, which
// is gone; it maps to the product path so that journaled bundles, whose
// digest covers the name, still decode and run.
func SolverKind(name string) (core.SolverKind, error) {
	switch name {
	case "", "portfolio", "seq":
		return core.Portfolio, nil
	case "par":
		return core.Parallel, nil
	case "cnf":
		return core.CNF, nil
	}
	return 0, fmt.Errorf("unknown solver %q", name)
}

// Digest is the bundle's content address: a hex SHA-256 over a canonical
// serialization of every semantic field (the display name is excluded).
// Two users uploading the same program, configuration and log bytes land
// on the same digest, so the second is served from the first's cached
// reproduction — the crash-reporting-backend dedupe of ROADMAP item 1.
func (b *Bundle) Digest() string {
	h := sha256.New()
	put := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	putInt := func(v int64) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(v))
		h.Write(n[:])
	}
	put(BundleSchema)
	put(b.Program)
	put(strings.ToUpper(b.Model))
	putInt(int64(len(b.Inputs)))
	for _, in := range b.Inputs {
		putInt(in)
	}
	put(b.Solver)
	putInt(b.Seed)
	putInt(int64(b.Chaos))
	putInt(int64(b.DrainBias))
	putInt(int64(b.MaxActions))
	if b.NoDemote {
		putInt(1)
	} else {
		putInt(0)
	}
	putInt(int64(b.FailureThread))
	putInt(int64(b.FailureSite))
	put(b.FailureMsg)
	putInt(int64(len(b.Log)))
	h.Write(b.Log)
	return hex.EncodeToString(h.Sum(nil))
}

// Encode marshals the bundle as indented JSON with a trailing newline.
func (b *Bundle) Encode() ([]byte, error) {
	b.Schema = BundleSchema
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeLog salvage-decodes the bundle's framed log: damaged or
// truncated uploads yield their longest valid prefix plus a report of
// what was lost, instead of an error. A log that salvages to nothing is
// a BadBundleError.
func (b *Bundle) DecodeLog() (*trace.PathLog, *trace.SalvageReport, error) {
	log, rep := trace.DecodePathLogSalvage(b.Log)
	if rep.Events == 0 || len(log.Threads) == 0 {
		return nil, rep, badBundle("log salvages to nothing (%s)", rep)
	}
	return log, rep, nil
}

// Rehydrate compiles the bundle's program and rebuilds the Recording the
// offline pipeline runs on. Errors are permanent: the same bytes will
// fail the same way on every retry.
func (b *Bundle) Rehydrate() (*core.Recording, *trace.SalvageReport, error) {
	prog, err := core.Compile(b.Program)
	if err != nil {
		return nil, nil, badBundle("program does not compile: %v", err)
	}
	log, salv, err := b.DecodeLog()
	if err != nil {
		return nil, salv, err
	}
	model, err := ParseModel(b.Model)
	if err != nil {
		return nil, salv, badBundle("%v", err)
	}
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
	if err != nil {
		return nil, salv, badBundle("%v", err)
	}
	return rec, salv, nil
}

// FromRecording packages a locally recorded failure as an uploadable
// bundle — the client half of the service: `clap bundle` records and
// ships, clapd rehydrates and reproduces. src is the program source the
// recording was compiled from (a Recording holds only the lowered IR).
func FromRecording(rec *core.Recording, src, name, solver string) *Bundle {
	b := &Bundle{
		Schema:     BundleSchema,
		Name:       name,
		Program:    src,
		Model:      rec.Model.String(),
		Inputs:     rec.Inputs,
		Solver:     solver,
		Seed:       rec.Seed,
		Chaos:      rec.Chaos,
		DrainBias:  rec.DrainBias,
		MaxActions: rec.MaxActions,
		Log:        rec.Log.EncodeFramed(trace.FramedOptions{}),
	}
	if rec.Failure != nil {
		b.FailureThread = int(rec.Failure.Thread)
		b.FailureSite = rec.Failure.Site
		b.FailureMsg = rec.Failure.Msg
	}
	return b
}
