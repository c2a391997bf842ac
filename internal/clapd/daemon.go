// Daemon assembly: configuration, the in-memory job table mirroring the
// journal, admission control with backpressure, restart recovery, and
// graceful drain.
package clapd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Config parameterizes a daemon.
type Config struct {
	// Dir is the daemon's state directory (journal + object store).
	Dir string
	// Workers sizes the worker pool (default 2; <0 = no workers, for
	// drain drills and tests that stage jobs without executing them).
	Workers int
	// QueueDepth bounds the active (queued+running+retrying) job count;
	// ingests past it are refused with ErrSaturated → HTTP 429
	// (default 64). Recovery re-queues are exempt: an accepted job is
	// never dropped for arriving before a crash instead of after.
	QueueDepth int
	// MaxUploadBytes caps one ingest body (default DefaultMaxBundleBytes).
	MaxUploadBytes int64
	// MaxAttempts bounds executions per job before it is poisoned
	// (default 3).
	MaxAttempts int
	// JobTimeout bounds one pipeline execution, reusing the deadline
	// plumbing threaded through solve/replay (default 2m).
	JobTimeout time.Duration
	// RetryBase is the backoff unit: attempt n waits
	// RetryBase·2ⁿ⁻¹ (capped at 64×) plus ≤50% deterministic jitter
	// (default 500ms; tests use ~1ms).
	RetryBase time.Duration
	// CacheDir is the content-addressed schedule cache directory shared
	// by job executions: solved schedules are keyed by bundle digest, so
	// a retry (or a re-upload after the store was pruned) re-validates
	// the cached schedule instead of solving again.
	// Default: "cache" under Dir. Set to "-" to disable caching.
	CacheDir string
	// Obs receives the daemon's spans and clapd.* counters (one trace
	// for the process; per-job traces are separate). Created when nil.
	Obs *obs.Trace
	// LogWriter receives the structured event log — one JSON object per
	// line, see Event (default: discarded).
	LogWriter io.Writer
}

func (c *Config) fill() {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = DefaultMaxBundleBytes
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 500 * time.Millisecond
	}
}

// Job is the in-memory view of one journaled job.
type Job struct {
	Digest  string `json:"digest"`
	Name    string `json:"name,omitempty"`
	State   State  `json:"state"`
	Attempt int    `json:"attempt"`
	Err     string `json:"err,omitempty"`
	// Recovered marks a job re-queued by restart recovery.
	Recovered bool `json:"recovered,omitempty"`

	// enteredAt stamps the current state's start so the event log can
	// report how long the job spent in each state. In-memory only: the
	// journal carries states, not wall-clock.
	enteredAt time.Time
}

// ErrSaturated refuses an ingest when the active-job budget is spent.
// It maps to HTTP 429 + Retry-After.
var ErrSaturated = errors.New("clapd: queue saturated")

// ErrDraining refuses an ingest while the daemon is shutting down.
// It maps to HTTP 503.
var ErrDraining = errors.New("clapd: draining")

// Daemon is one reproduction service instance.
type Daemon struct {
	cfg     Config
	store   *Store
	journal *Journal
	tr      *obs.Trace
	log     *EventLog
	// cache is the cross-attempt schedule cache (nil when disabled); see
	// Config.CacheDir.
	cache *core.DiskCache

	mu     sync.Mutex
	jobs   map[string]*Job
	queue  []string // digests awaiting a worker, FIFO
	busy   int      // workers currently executing a job
	wake   chan struct{}
	drain  bool
	closed bool

	// stop broadcasts drain to blocked workers and retry timers.
	stop     chan struct{}
	stopOnce sync.Once

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // workers
	timers sync.WaitGroup // pending retry timers
}

// Open recovers daemon state from dir and starts the worker pool.
//
// Recovery policy per journaled job: terminal states are kept as the
// cached record; queued/retrying jobs re-enter the queue unchanged; a
// job that was *running* when the process died has its attempt charged
// (the crash may have been the job's fault) and is re-queued, or
// poisoned when that spends the budget. The journal is the only
// authority — an accepted job either reaches exactly one terminal state
// or is still pending, never silently lost.
func Open(cfg Config) (*Daemon, error) {
	cfg.fill()
	store, err := OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	journal, entries, jrec, err := OpenJournal(cfg.Dir)
	if err != nil {
		return nil, err
	}
	tr := cfg.Obs
	if tr == nil {
		tr = obs.NewTrace("clapd")
	}
	logw := cfg.LogWriter
	if logw == nil {
		logw = io.Discard
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{
		cfg:     cfg,
		store:   store,
		journal: journal,
		tr:      tr,
		log:     NewEventLog(logw),
		jobs:    map[string]*Job{},
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		ctx:     ctx,
		cancel:  cancel,
	}
	switch cfg.CacheDir {
	case "-":
		// caching disabled
	case "":
		cfg.CacheDir = filepath.Join(cfg.Dir, "cache")
		fallthrough
	default:
		cache, cerr := core.OpenDiskCache(cfg.CacheDir)
		if cerr != nil {
			// The cache is an accelerator, never a dependency: log and run
			// without it.
			d.log.Logf("artifact cache disabled: %v", cerr)
		} else {
			d.cache = cache
		}
	}
	if jrec.DroppedBytes > 0 {
		d.log.Logf("journal recovery dropped %dB tail: %s", jrec.DroppedBytes, jrec.DroppedReason)
		d.reg().Add("clapd.journal.dropped.bytes", int64(jrec.DroppedBytes))
	}
	// Pin the live gauges to 0 so an idle daemon's /metrics already
	// carries them; recovery below overwrites the queue depth.
	d.setQueueGauge()
	d.setBusyGauge()
	if err := d.recover(entries); err != nil {
		journal.Close()
		cancel()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		d.wg.Add(1)
		go d.workerLoop(i)
	}
	return d, nil
}

func (d *Daemon) reg() *obs.Registry { return d.tr.Reg() }

// recover rebuilds the job table from replayed journal entries and
// re-queues the unfinished ones.
func (d *Daemon) recover(entries []Entry) error {
	for _, e := range entries {
		job := &Job{Digest: e.Digest, State: e.State, Attempt: e.Attempt, Err: e.Err}
		d.jobs[e.Digest] = job
		if e.State.Terminal() {
			continue
		}
		job.Recovered = true
		switch e.State {
		case StateRunning:
			// The process died with this job in flight; charge the
			// attempt that was cut short.
			if e.Attempt >= d.cfg.MaxAttempts {
				if err := d.transition(job, StatePoisoned, e.Attempt,
					fmt.Sprintf("crashed mid-run on attempt %d/%d", e.Attempt, d.cfg.MaxAttempts)); err != nil {
					return err
				}
				d.reg().Add("clapd.recovered.poisoned", 1)
				continue
			}
			if err := d.transition(job, StateRetrying, e.Attempt, "recovered after crash mid-run"); err != nil {
				return err
			}
		case StateQueued, StateRetrying:
			// Already durable in the right state; no new journal entry.
		}
		d.queue = append(d.queue, e.Digest)
		d.reg().Add("clapd.recovered.requeued", 1)
	}
	d.setQueueGauge()
	return nil
}

// transition journals a state change and mirrors it in memory. It
// refuses to leave a terminal state: double completion is a bug the
// chaos tests hunt, so it is loud, counted, and refused. Callers hold no
// lock or d.mu per journaling's own lock; job field writes happen under
// d.mu via the caller or during single-threaded recovery.
func (d *Daemon) transition(job *Job, to State, attempt int, jobErr string) error {
	if job.State.Terminal() {
		d.reg().Add("clapd.jobs.doublecomplete.refused", 1)
		return fmt.Errorf("clapd: job %.12s is already %s, refusing %s", job.Digest, job.State, to)
	}
	if _, err := d.journal.Append(job.Digest, to, attempt, jobErr); err != nil {
		return err
	}
	from := job.State
	now := time.Now()
	var dur time.Duration
	if !job.enteredAt.IsZero() {
		dur = now.Sub(job.enteredAt)
	}
	job.State = to
	job.Attempt = attempt
	job.Err = jobErr
	job.enteredAt = now
	d.log.Emit(Event{
		Kind:    "job.transition",
		Digest:  job.Digest,
		From:    string(from),
		State:   string(to),
		Attempt: attempt,
		DurNS:   int64(dur),
		Err:     jobErr,
	})
	return nil
}

// IngestStatus classifies an accepted-or-deduped ingest.
type IngestStatus int

// Ingest outcomes.
const (
	// IngestAccepted queued a new job.
	IngestAccepted IngestStatus = iota
	// IngestCached found a completed job: the reproduction is served
	// from the store with no new pipeline run.
	IngestCached
	// IngestInFlight found the digest already queued/running/retrying;
	// the upload is shed and the client polls the existing job.
	IngestInFlight
)

// IngestResult reports an ingest decision.
type IngestResult struct {
	Status IngestStatus
	Digest string
	Job    Job
}

// Ingest admits one uploaded bundle: validate, digest, dedupe, persist,
// journal, queue — in that order, so every 201 is durable and every
// duplicate costs no pipeline work. The raw bytes must already be
// length-capped by the caller (the HTTP layer uses MaxBytesReader);
// DecodeBundle re-checks as defense in depth.
func (d *Daemon) Ingest(raw []byte) (*IngestResult, error) {
	b, err := DecodeBundle(raw, d.cfg.MaxUploadBytes)
	if err != nil {
		var tooLarge *TooLargeError
		if errors.As(err, &tooLarge) {
			d.reg().Add("clapd.ingest.rejected.toolarge", 1)
		} else {
			d.reg().Add("clapd.ingest.rejected.badbundle", 1)
		}
		return nil, err
	}
	digest := b.Digest()

	d.mu.Lock()
	defer d.mu.Unlock()
	if job, ok := d.jobs[digest]; ok {
		res := &IngestResult{Digest: digest, Job: *job}
		if job.State == StateDone {
			res.Status = IngestCached
			d.reg().Add("clapd.ingest.dedup.cached", 1)
		} else if job.State == StatePoisoned {
			// A poisoned job is terminal too: re-uploading the same bytes
			// would fail the same way, so serve the recorded failure.
			res.Status = IngestCached
			d.reg().Add("clapd.ingest.dedup.poisoned", 1)
		} else {
			res.Status = IngestInFlight
			d.reg().Add("clapd.ingest.dedup.inflight", 1)
		}
		return res, nil
	}
	if d.drain || d.closed {
		return nil, ErrDraining
	}
	if d.activeLocked() >= d.cfg.QueueDepth {
		d.reg().Add("clapd.ingest.rejected.saturated", 1)
		return nil, ErrSaturated
	}
	// Persist the bundle before journaling acceptance: recovery must
	// always find the bytes for a journaled job.
	if _, err := d.store.PutBundle(digest, raw); err != nil {
		return nil, err
	}
	job := &Job{Digest: digest, Name: b.Name, State: StateQueued, enteredAt: time.Now()}
	if _, err := d.journal.Append(digest, StateQueued, 0, ""); err != nil {
		// Not accepted: nothing durable, the client must retry.
		return nil, err
	}
	d.log.Emit(Event{Kind: "job.transition", Digest: digest, State: string(StateQueued)})
	d.jobs[digest] = job
	d.queue = append(d.queue, digest)
	d.setQueueGauge()
	d.notify()
	d.reg().Add("clapd.ingest.accepted", 1)
	return &IngestResult{Status: IngestAccepted, Digest: digest, Job: *job}, nil
}

// activeLocked counts jobs holding an admission slot. Callers hold d.mu.
func (d *Daemon) activeLocked() int {
	n := 0
	for _, j := range d.jobs {
		if !j.State.Terminal() {
			n++
		}
	}
	return n
}

// RetryAfter estimates seconds until a saturated queue likely has room:
// one slot must fully drain, so scale the per-job budget guess by the
// backlog per worker. Clamped to [1, 60].
func (d *Daemon) RetryAfter() int {
	d.mu.Lock()
	active := d.activeLocked()
	d.mu.Unlock()
	workers := d.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	secs := (active/workers + 1) * 2
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// JobView returns a snapshot of one job.
func (d *Daemon) JobView(digest string) (Job, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[digest]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Jobs snapshots the job table, ordered by digest.
func (d *Daemon) Jobs() []Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Job, 0, len(d.jobs))
	for _, j := range d.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out
}

// Store exposes the artifact store (read paths of the HTTP layer).
func (d *Daemon) Store() *Store { return d.store }

// Trace exposes the daemon's observability trace (GET /v1/stats).
func (d *Daemon) Trace() *obs.Trace { return d.tr }

// Draining reports whether shutdown has begun.
func (d *Daemon) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.drain
}

// notify wakes one idle worker (best effort; workers also poll on
// queue-affecting transitions).
func (d *Daemon) notify() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

func (d *Daemon) setQueueGauge() {
	d.reg().Set("clapd.queue.depth", int64(len(d.queue)))
}

// setBusyGauge republishes the busy-worker count. Callers hold d.mu
// (or run single-threaded at Open).
func (d *Daemon) setBusyGauge() {
	d.reg().Set("clapd.workers.busy", int64(d.busy))
}

// pop takes the next queued digest, blocking until work arrives or the
// daemon stops. ok=false means shut down: a draining daemon leaves
// queued jobs untouched — their journaled state is their checkpoint, and
// the next start re-queues them.
func (d *Daemon) pop() (string, bool) {
	for {
		d.mu.Lock()
		if d.drain || d.closed {
			d.mu.Unlock()
			return "", false
		}
		if len(d.queue) > 0 {
			digest := d.queue[0]
			d.queue = d.queue[1:]
			d.setQueueGauge()
			d.mu.Unlock()
			return digest, true
		}
		d.mu.Unlock()
		select {
		case <-d.wake:
		case <-d.stop:
			return "", false
		case <-d.ctx.Done():
			return "", false
		}
	}
}

// Shutdown drains gracefully: stop admitting, let running jobs finish,
// keep queued jobs journaled for the next start, then close the WAL.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.drain = true
	d.mu.Unlock()
	// Broadcast: idle workers and pending retry timers exit; a running
	// worker finishes its current job first.
	d.stopOnce.Do(func() { close(d.stop) })

	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		d.timers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Out of patience: hard-cancel in-flight pipelines (the deadline
		// plumbing aborts solves between decisions) and wait.
		d.cancel()
		<-done
		err = ctx.Err()
	}
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cancel()
	if cerr := d.journal.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
