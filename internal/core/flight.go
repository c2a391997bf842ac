// Flight-recorder glue: assemble the unified timeline artifact and the
// explainability reports from a Reproduction. The timeline and explain
// packages are pipeline-agnostic (they never import core); this file is
// where the pipeline's pieces — the recorded seed re-run, the solved
// schedule with its witness and the replay capture — are gathered into
// their inputs.
package core

import (
	"fmt"

	"repro/internal/constraints"
	"repro/internal/explain"
	"repro/internal/timeline"
)

// BuildTimeline assembles the flight-recorder timeline for a reproduction:
// the recorded interleaving (reconstructed by re-running the winning
// seed), the solved SAP schedule annotated with race-flip arrows, and the
// replay's event capture when Reproduce ran with CaptureReplay. program
// is the display name (benchmark or source file).
//
// Every lane is optional except the recorded one: a timeline of a failed
// solve shows what was recorded.
func (rep *Reproduction) BuildTimeline(program string) (*timeline.Timeline, error) {
	rec := rep.Recording
	if rec == nil {
		return nil, fmt.Errorf("core: no recording to build a timeline from")
	}
	events, err := rec.CaptureEvents()
	if err != nil {
		return nil, err
	}
	tl := &timeline.Timeline{Program: program}
	threads := 0
	if rec.Run != nil {
		threads = rec.Run.Threads
	}
	tl.Execs = append(tl.Execs, timeline.FromEvents(timeline.ExecRecorded, events, threads))

	if rep.System != nil && rep.Solution != nil {
		ex := timeline.FromOrder(timeline.ExecSolved, rep.System, rep.Solution.Order, rep.Solution.Witness)
		if times, err := explain.AlignRecorded(rep.System, events, rec.Demoted); err == nil {
			d := explain.DiffSchedules(rep.System, times, rep.Solution.Order, rep.Solution.Witness)
			addFlipArrows(ex, rep.System, rep.Solution.Order, d)
		}
		tl.Execs = append(tl.Execs, ex)
	}

	if rep.Outcome != nil && len(rep.Outcome.Events) > 0 {
		tl.Execs = append(tl.Execs, timeline.FromEvents(timeline.ExecReplay, rep.Outcome.Events, 0))
	}
	emitTimeline(rep, tl)
	return tl, nil
}

// emitTimeline publishes the timeline's size under the stable obs names.
func emitTimeline(rep *Reproduction, tl *timeline.Timeline) {
	if rep.Trace == nil {
		return
	}
	reg := rep.Trace.Reg()
	events, arrows := 0, 0
	for _, ex := range tl.Execs {
		events += len(ex.Events)
		arrows += len(ex.Arrows)
	}
	reg.Set("timeline.execs", int64(len(tl.Execs)))
	reg.Set("timeline.events", int64(events))
	reg.Set("timeline.arrows", int64(arrows))
}

// addFlipArrows draws the schedule diff's flipped pairs onto the solved
// lane as flow arrows from the SAP the solver moved earlier to the one it
// moved later. Capped at the diff's own flip cap; the stress benchmarks
// have thousands of conflicting pairs and an arrow per pair explains
// nothing.
func addFlipArrows(ex *timeline.Execution, sys *constraints.System, order []constraints.SAPRef, d *explain.Diff) {
	pos := make([]int64, len(sys.SAPs))
	for i := range pos {
		pos[i] = -1
	}
	for i, r := range order {
		pos[r] = int64(i)
	}
	for _, f := range d.Flips {
		// First ran before Second in the recorded run; the solver reversed
		// them, so the arrow runs Second → First in solved time.
		a, b := sys.SAP(f.Second), sys.SAP(f.First)
		if pos[f.Second] < 0 || pos[f.First] < 0 {
			continue
		}
		ex.Arrows = append(ex.Arrows, timeline.Arrow{
			Kind:       timeline.ArrowFlip,
			Label:      fmt.Sprintf("%s flip", f.Kind),
			FromThread: int(a.Thread), FromTime: pos[f.Second],
			ToThread: int(b.Thread), ToTime: pos[f.First],
		})
	}
}

// ScheduleDiff builds the race-flip report: the conflicting SAP pairs
// whose order the solved schedule reversed relative to the recorded
// interleaving, plus the reads whose last writer changed. It needs a
// solved reproduction.
func (rep *Reproduction) ScheduleDiff() (*explain.Diff, error) {
	if rep.Recording == nil || rep.System == nil {
		return nil, fmt.Errorf("core: schedule diff needs an analyzed recording")
	}
	if rep.Solution == nil {
		return nil, fmt.Errorf("core: schedule diff needs a solved schedule")
	}
	events, err := rep.Recording.CaptureEvents()
	if err != nil {
		return nil, err
	}
	times, err := explain.AlignRecorded(rep.System, events, rep.Recording.Demoted)
	if err != nil {
		return nil, err
	}
	d := explain.DiffSchedules(rep.System, times, rep.Solution.Order, rep.Solution.Witness)
	if d.TotalFlips == 0 {
		// Zero flips: the solver reproduced the recorded conflict order.
		// Probe whether that order is essential — a sound "the race's
		// recorded order IS the trigger" beats an empty diff.
		d.ProbeRacePairs(0)
	}
	if rep.Trace != nil {
		reg := rep.Trace.Reg()
		reg.Set("explain.flips", int64(d.TotalFlips))
		reg.Set("explain.remaps", int64(len(d.Remaps)))
	}
	return d, nil
}

// ExplainUnsat runs the minimal-unsat-subset shrinker on the
// reproduction's constraint system — the "why no schedule exists" verdict
// for a failed solve.
func (rep *Reproduction) ExplainUnsat() (*explain.Core, error) {
	if rep.System == nil {
		return nil, fmt.Errorf("core: no constraint system to explain")
	}
	return explain.MinimizeUnsat(rep.System), nil
}
