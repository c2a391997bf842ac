// The worker pool: each worker pulls journaled jobs, runs the offline
// pipeline (rehydrate → symexec → solve → replay), persists artifacts,
// and drives the retry/poison state machine.
//
// Failure taxonomy:
//
//   - Permanent: the bundle itself cannot ever succeed (does not parse,
//     does not compile, rehydration rejects it, the CNF solver proves that
//     no schedule exists, replay refutes the schedule). Re-running burns
//     CPU for the same answer → poison now.
//   - Transient: timeouts, injected faults, filesystem errors, panics.
//     Retry with exponential backoff + deterministic jitter until the
//     attempt budget is spent, then poison.
//
// A worker must be un-killable by a job: panics are recovered into the
// retry path, and the per-job metrics report is written (and fsynced)
// from a defer, so even a panicking or failing attempt leaves its
// clap-metrics/1 trace in the store — the daemon-path analogue of the
// startProfiles teardown contract in cmd/clap.
package clapd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/cnfsolver"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/races"
	"repro/internal/timeline"
)

// ResultSchema identifies the per-job result artifact format.
const ResultSchema = "clap-result/1"

// Result is the result.json artifact: the job's terminal summary.
type Result struct {
	Schema  string `json:"schema"`
	Digest  string `json:"digest"`
	Name    string `json:"name,omitempty"`
	Attempt int    `json:"attempt"`
	// Reproduced reports a verified deterministic replay.
	Reproduced  bool   `json:"reproduced"`
	Preemptions int    `json:"preemptions,omitempty"`
	ScheduleLen int    `json:"schedule_len,omitempty"`
	Solver      string `json:"solver,omitempty"`
	// Salvage summarizes the upload's framed-log salvage ("" = clean).
	Salvage string `json:"salvage,omitempty"`
	// Err is the pipeline failure for unsuccessful terminal jobs.
	Err string `json:"err,omitempty"`
}

// permanentError wraps failures that no retry can fix.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func permanent(err error) error { return &permanentError{err: err} }

// isPermanent classifies an execution failure. An unsat proof is
// permanent: the same bytes encode the same unsatisfiable system.
func isPermanent(err error) bool {
	var pe *permanentError
	var be *BadBundleError
	var unsat *cnfsolver.Unsat
	return errors.As(err, &pe) || errors.As(err, &be) || errors.As(err, &unsat)
}

// workerLoop is one worker goroutine: pop, run, repeat until drain.
func (d *Daemon) workerLoop(id int) {
	defer d.wg.Done()
	for {
		digest, ok := d.pop()
		if !ok {
			return
		}
		d.runJob(digest)
	}
}

// runJob drives one popped job through exactly one attempt and its
// resulting transition. Fire point clapd.worker.start kills or fails the
// job before any work; clapd.worker.done fires after the terminal
// transition (a crash there proves completed work is not re-done).
func (d *Daemon) runJob(digest string) {
	d.mu.Lock()
	job, ok := d.jobs[digest]
	if !ok || job.State.Terminal() || job.State == StateRunning {
		// Stale queue entry (double-queued digest or recovered duplicate):
		// running it again would risk double completion.
		d.mu.Unlock()
		return
	}
	attempt := job.Attempt + 1
	if err := d.transition(job, StateRunning, attempt, ""); err != nil {
		// The journal refused (full disk, injected fault): leave the job
		// queued-on-disk; re-queue in memory after backoff.
		d.mu.Unlock()
		d.log.Jobf(digest, "running transition failed: %v", err)
		d.scheduleRetryPush(digest, attempt)
		return
	}
	d.busy++
	d.setBusyGauge()
	d.mu.Unlock()

	start := time.Now()
	err := faultinject.Fire("clapd.worker.start")
	var res *Result
	if err == nil {
		res, err = d.execute(digest, attempt)
	}
	// Every attempt — success, retryable failure, poison — lands in the
	// job-latency histogram: tail latency is a fleet property, not a
	// success-only one.
	d.reg().Hist("clapd.job.ns").Observe(int64(time.Since(start)))

	d.mu.Lock()
	defer d.mu.Unlock()
	d.busy--
	d.setBusyGauge()
	switch {
	case err == nil:
		if res != nil {
			res.Attempt = attempt
		}
		if terr := d.transition(job, StateDone, attempt, ""); terr != nil {
			d.log.Jobf(digest, "done transition failed: %v", terr)
			d.reg().Add("clapd.jobs.done.unjournaled", 1)
			return
		}
		d.reg().Add("clapd.jobs.done", 1)
	case isPermanent(err) || attempt >= d.cfg.MaxAttempts:
		d.writeFailureResult(digest, job.Name, attempt, err)
		if terr := d.transition(job, StatePoisoned, attempt, err.Error()); terr != nil {
			d.log.Jobf(digest, "poison transition failed: %v", terr)
			return
		}
		d.reg().Add("clapd.jobs.poisoned", 1)
	default:
		if terr := d.transition(job, StateRetrying, attempt, err.Error()); terr != nil {
			d.log.Jobf(digest, "retry transition failed: %v", terr)
			return
		}
		d.reg().Add("clapd.jobs.retried", 1)
		d.scheduleRetryPush(digest, attempt)
	}
	if ferr := faultinject.Fire("clapd.worker.done"); ferr != nil {
		d.log.Jobf(digest, "injected post-transition fault: %v", ferr)
	}
}

// scheduleRetryPush re-queues the digest after the attempt's backoff.
// On drain the timer exits without pushing: the journaled retrying state
// is the checkpoint recovery replays.
func (d *Daemon) scheduleRetryPush(digest string, attempt int) {
	delay := Backoff(d.cfg.RetryBase, digest, attempt)
	d.timers.Add(1)
	go func() {
		defer d.timers.Done()
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-d.stop:
			return
		case <-d.ctx.Done():
			return
		}
		d.mu.Lock()
		if !d.drain && !d.closed {
			d.queue = append(d.queue, digest)
			d.setQueueGauge()
			d.notify()
		}
		d.mu.Unlock()
	}()
}

// Backoff computes attempt n's delay: base·2ⁿ⁻¹ capped at 64×base, plus
// up to 50% jitter derived deterministically from (digest, attempt) so
// chaos failures replay identically while a thundering herd of retries
// still spreads out.
func Backoff(base time.Duration, digest string, attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	d := base << shift
	// Jitter: a cheap integer hash of the digest prefix and attempt.
	var seed uint64
	if len(digest) >= 16 {
		for i := 0; i < 16; i++ {
			seed = seed*16777619 + uint64(digest[i])
		}
	}
	seed = seed*16777619 + uint64(attempt)
	frac := float64(seed%1000) / 1000 // [0,1)
	return d + time.Duration(frac*float64(d)/2)
}

// execute runs one pipeline attempt. It never panics: a panicking stage
// becomes a transient error. The per-job metrics report is written from
// a defer so error and panic exits still persist it.
func (d *Daemon) execute(digest string, attempt int) (res *Result, err error) {
	raw, rerr := d.store.Read(digest, ArtifactBundle)
	if rerr != nil {
		return nil, rerr // store hiccup: transient
	}
	b, berr := DecodeBundle(raw, d.cfg.MaxUploadBytes)
	if berr != nil {
		return nil, berr // BadBundleError: permanent
	}

	tr := obs.NewTrace("clapd.job")
	tr.Root().SetAttr("digest", digest)
	tr.Root().SetInt("attempt", int64(attempt))
	defer func() {
		if r := recover(); r != nil {
			d.reg().Add("clapd.jobs.panics", 1)
			err = fmt.Errorf("clapd: job panicked: %v", r)
			res = nil
		}
		// The metrics artifact goes out on every exit path — success,
		// error, panic — fsynced, like the CLI's profile teardown. The
		// attempt's registry also folds into the daemon-lifetime registry
		// (counters sum, gauges last-wins, histogram buckets add), so
		// /metrics aggregates every attempt the process ever ran.
		d.reg().Merge(tr.Reg().TakeSnapshot())
		if mdata, merr := tr.Report().Encode(); merr == nil {
			if werr := d.store.Write(digest, ArtifactMetrics, mdata); werr != nil {
				d.log.Jobf(digest, "metrics write failed: %v", werr)
				if err == nil {
					err = werr
					res = nil
				}
			}
		}
	}()

	d.reg().Add("clapd.jobs.executed", 1)
	sp := tr.Root().Start("job.rehydrate")
	rec, salv, herr := b.Rehydrate()
	if herr != nil {
		sp.SetAttr("err", herr.Error())
		sp.End()
		return nil, herr
	}
	if !salv.Clean() {
		sp.SetAttr("salvage", salv.String())
		d.reg().Add("clapd.jobs.salvaged", 1)
	}
	sp.End()

	if ferr := faultinject.Fire("clapd.worker.solve"); ferr != nil {
		return nil, ferr
	}
	kind, _ := SolverKind(b.Solver)
	ctx, cancel := context.WithCancel(d.ctx)
	defer cancel()
	rep, perr := core.Reproduce(rec, core.ReproduceOptions{
		Solver:        kind,
		Deadline:      d.cfg.JobTimeout,
		Ctx:           ctx,
		CaptureReplay: true,
		Obs:           tr,
		// The bundle digest keys the artifact cache, so the daemon's
		// dedupe address and the cache address coincide: a retry of this
		// digest (attempt 2 after a crash, or a re-upload after store
		// pruning) re-validates the previously solved schedule instead
		// of solving again.
		Cache:    d.cache,
		CacheKey: digest,
	})
	if perr != nil {
		if rep != nil {
			d.writeExplainArtifacts(digest, rep)
		}
		if rep != nil && rep.Outcome != nil && !rep.Outcome.Reproduced {
			return nil, permanent(perr) // deterministic replay refutation
		}
		return nil, perr // transient unless an unsat proof (isPermanent)
	}

	if ferr := faultinject.Fire("clapd.worker.result"); ferr != nil {
		return nil, ferr
	}
	d.writeExplainArtifacts(digest, rep)
	res = &Result{
		Schema:     ResultSchema,
		Digest:     digest,
		Name:       b.Name,
		Attempt:    attempt,
		Reproduced: rep.Outcome != nil && rep.Outcome.Reproduced,
		Solver:     kind.String(),
	}
	if !salv.Clean() {
		res.Salvage = salv.String()
	}
	if rep.Solution != nil {
		res.Preemptions = rep.Solution.Preemptions
		res.ScheduleLen = len(rep.Solution.Order)
	}
	data, jerr := json.MarshalIndent(res, "", "  ")
	if jerr != nil {
		return nil, jerr
	}
	if werr := d.store.Write(digest, ArtifactResult, append(data, '\n')); werr != nil {
		return nil, werr
	}
	return res, nil
}

// writeExplainArtifacts persists the flight-recorder views (timeline
// lanes, schedule-diff explanation) best-effort: explainability
// artifacts must never fail a job that solved.
func (d *Daemon) writeExplainArtifacts(digest string, rep *core.Reproduction) {
	if tl, err := rep.BuildTimeline(digest[:12]); err == nil {
		if data, err := timeline.EncodeChrome(tl); err == nil && timeline.Validate(data) == nil {
			if err := d.store.Write(digest, ArtifactTimeline, data); err != nil {
				d.log.Jobf(digest, "timeline write failed: %v", err)
			}
		}
	}
	if rep.Solution != nil {
		if diff, err := rep.ScheduleDiff(); err == nil {
			var buf bytes.Buffer
			diff.Render(&buf)
			if err := d.store.Write(digest, ArtifactExplain, buf.Bytes()); err != nil {
				d.log.Jobf(digest, "explain write failed: %v", err)
			}
		}
	}
	if rec := rep.Recording; rec != nil {
		if report, err := rec.DetectRaces(races.Options{}, nil); err == nil {
			meta := races.Meta{Program: digest[:12], Model: rec.Model.String(), Seed: rec.Seed}
			if data, err := report.MarshalReport(meta); err == nil {
				if err := d.store.Write(digest, ArtifactRaces, data); err != nil {
					d.log.Jobf(digest, "races write failed: %v", err)
				}
			}
		}
	}
}

// writeFailureResult persists a terminal-failure result.json so poisoned
// jobs serve an explanation, not a 404.
func (d *Daemon) writeFailureResult(digest, name string, attempt int, jobErr error) {
	res := &Result{
		Schema:  ResultSchema,
		Digest:  digest,
		Name:    name,
		Attempt: attempt,
		Err:     jobErr.Error(),
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return
	}
	if werr := d.store.Write(digest, ArtifactResult, append(data, '\n')); werr != nil {
		d.log.Jobf(digest, "failure result write failed: %v", werr)
	}
}
