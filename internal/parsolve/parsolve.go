// Package parsolve implements CLAP's parallel constraint solving algorithm
// (§4.3 of the paper): candidate schedules that satisfy the memory-order
// constraints are generated with increasing preemption bounds and validated
// against all the remaining constraints concurrently by a worker pool.
//
// "Each single schedule generation and validation is independent and fast
// (requiring only a linear scan of the SAPs and the constraints)" — the
// generator is internal/schedule, the linear validation is
// constraints.ValidateSchedule, and the pool below supplies the
// parallelism. The package reproduces the shape of Table 3: the number of
// generated candidates dwarfs the number of valid ones, the wall time
// beats sequential solving on most programs, and racey-style workloads
// (hundreds of forced preemptions) defeat the bounded generator.
package parsolve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/constraints"
	"repro/internal/schedule"
	"repro/internal/solver"
)

// Options tunes the parallel search.
type Options struct {
	// Workers is the validation pool size (default: GOMAXPROCS).
	Workers int
	// MaxBound is the largest preemption bound swept (default 8).
	MaxBound int
	// StopAfter stops the search once this many valid schedules are found
	// (default 1). More may be returned — workers mid-validation finish
	// their current candidate, matching the paper's "we typically have
	// found multiple correct schedules before the whole process is
	// terminated" — but queued candidates are drained unvalidated so the
	// pool shuts down promptly.
	StopAfter int
	// MaxSchedules caps generation per bound (0 = 5,000,000). A hit is
	// reported via Result.Capped, never silently.
	MaxSchedules int
	// Deadline bounds the whole search (0 = none).
	Deadline time.Duration
	// Ctx cancels the search (nil = never). A context deadline earlier
	// than Deadline wins; cancellation is reported via Result.Cancelled.
	Ctx context.Context
	// Progress, when set, receives periodic snapshots of the live search
	// counters for progress heartbeats. Called from the generator
	// goroutine; it must be fast and must not call back into the solver.
	Progress func(Progress)
}

// Progress is one live snapshot handed to Options.Progress.
type Progress struct {
	// Generated counts candidates produced so far (all bounds).
	Generated int64
	// Validated counts candidates the pool has checked so far.
	Validated int64
	// Valid counts candidates that passed validation so far.
	Valid int64
	// Bound is the preemption bound currently being swept.
	Bound int
}

// progressStride is how many generated candidates pass between Progress
// callbacks.
const progressStride = 2048

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxBound == 0 {
		o.MaxBound = 8
	}
	if o.StopAfter <= 0 {
		o.StopAfter = 1
	}
	if o.MaxSchedules == 0 {
		o.MaxSchedules = 5_000_000
	}
}

// Result summarizes a parallel solve.
type Result struct {
	// Solutions are the validated schedules found (at least one when
	// Found, possibly more from in-flight workers).
	Solutions []*solver.Solution
	// Generated counts candidate schedules produced.
	Generated int64
	// Validated counts candidates the pool actually validated; it trails
	// Generated when the search was cut short and queued candidates were
	// drained unvalidated.
	Validated int64
	// Valid counts candidates that passed validation.
	Valid int
	// Bound is the preemption bound at which the first solution appeared.
	Bound int
	// Capped reports whether generation hit MaxSchedules at some bound.
	Capped bool
	// TimedOut reports whether the deadline expired first.
	TimedOut bool
	// Cancelled reports whether the caller's context ended the search.
	Cancelled bool
	// Elapsed is the wall time of the search.
	Elapsed time.Duration
}

// Found reports whether at least one schedule was found.
func (r *Result) Found() bool { return len(r.Solutions) > 0 }

// Solve runs the parallel generate-and-validate search.
func Solve(sys *constraints.System, opts Options) (*Result, error) {
	opts.fill()
	start := time.Now()
	res := &Result{Bound: -1}
	gen := schedule.NewGenerator(sys, schedule.Options{
		MaxSchedules:     opts.MaxSchedules,
		RespectHardEdges: true,
	})

	// Unify the explicit deadline with the context's: earliest wins.
	var deadline time.Time
	if opts.Deadline > 0 {
		deadline = start.Add(opts.Deadline)
	}
	if opts.Ctx != nil {
		if d, ok := opts.Ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
			deadline = d
		}
	}

	// The search context is cancelled the moment the search is over — the
	// caller's context fired, the deadline expired, or StopAfter was
	// reached — so workers drain queued candidates without validating them
	// instead of grinding through a full channel's worth of dead work.
	parent := opts.Ctx
	if parent == nil {
		parent = context.Background()
	}
	// A context that is already cancelled, or a deadline already in the
	// past, means there is no budget at all: report the cut immediately.
	// Entering the bound loop here used to spawn a worker pool per bound
	// (and, when a bound generated no candidates, sweep every bound with
	// Cancelled never set — indistinguishable from an exhaustive search).
	if err := parent.Err(); err != nil {
		res.Cancelled = true
		if errors.Is(err, context.DeadlineExceeded) {
			res.TimedOut = true
		}
		res.Elapsed = time.Since(start)
		return res, nil
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		res.TimedOut = true
		res.Elapsed = time.Since(start)
		return res, nil
	}
	sctx, cancelSearch := context.WithCancel(parent)
	defer cancelSearch()

	// Candidate orders are copied into pooled buffers: invalid candidates
	// (the overwhelming majority, per Table 3) recycle their buffer, only
	// solutions keep theirs.
	bufPool := sync.Pool{New: func() any {
		s := make([]constraints.SAPRef, 0, len(sys.SAPs))
		return &s
	}}

	for bound := 0; bound <= opts.MaxBound; bound++ {
		jobs := make(chan *[]constraints.SAPRef, opts.Workers*4)
		var mu sync.Mutex
		stop := false
		var wg sync.WaitGroup
		for w := 0; w < opts.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for op := range jobs {
					if sctx.Err() != nil {
						bufPool.Put(op) // search over: drain, don't validate
						continue
					}
					order := *op
					witness, err := sys.ValidateSchedule(order)
					mu.Lock()
					res.Validated++
					if err != nil {
						mu.Unlock()
						bufPool.Put(op)
						continue
					}
					res.Valid++
					res.Solutions = append(res.Solutions, &solver.Solution{
						Order:       order,
						Witness:     witness,
						Preemptions: witness.Preemptions,
					})
					if res.Valid >= opts.StopAfter && !stop {
						stop = true
						cancelSearch()
					}
					mu.Unlock()
				}
			}()
		}
		produced := int64(0)
		genRes := gen.Generate(bound, func(order []constraints.SAPRef, pre int) bool {
			op := bufPool.Get().(*[]constraints.SAPRef)
			*op = append((*op)[:0], order...)
			jobs <- op
			produced++
			mu.Lock()
			done := stop
			if opts.Progress != nil && produced%progressStride == 0 {
				p := Progress{
					Generated: res.Generated + produced,
					Validated: res.Validated,
					Valid:     int64(res.Valid),
					Bound:     bound,
				}
				mu.Unlock()
				opts.Progress(p)
				mu.Lock()
			}
			mu.Unlock()
			if done {
				return false
			}
			if parent.Err() != nil {
				mu.Lock()
				res.Cancelled = true
				mu.Unlock()
				cancelSearch()
				return false
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				mu.Lock()
				res.TimedOut = true
				mu.Unlock()
				cancelSearch()
				return false
			}
			return true
		})
		close(jobs)
		wg.Wait()
		res.Generated += int64(genRes.Generated)
		if genRes.Capped {
			res.Capped = true
		}
		if res.Found() {
			res.Bound = bound
			break
		}
		if res.TimedOut || res.Cancelled {
			break
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
