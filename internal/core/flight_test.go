package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/timeline"
	"repro/internal/vm"
)

func flightRep(t *testing.T) *Reproduction {
	t.Helper()
	rep, err := ReproduceSource(figure2SC,
		RecordOptions{Model: vm.SC, SeedLimit: 3000},
		ReproduceOptions{CaptureReplay: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCaptureEventsDeterministic(t *testing.T) {
	rep := flightRep(t)
	rec := rep.Recording
	ev1, err := rec.CaptureEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev1) == 0 {
		t.Fatal("no events captured")
	}
	ev2, err := rec.CaptureEvents()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatal("recorded-run capture not deterministic")
	}

	// A recording whose pinned configuration no longer reaches the failure
	// must report divergence, not silently return a different run.
	bad := *rec
	bad.MaxActions = 1
	if _, err := bad.CaptureEvents(); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("want divergence error, got %v", err)
	}
}

func TestBuildTimelineLanes(t *testing.T) {
	rep := flightRep(t)
	tl, err := rep.BuildTimeline("figure2")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ex := range tl.Execs {
		names = append(names, ex.Name)
	}
	want := []string{timeline.ExecRecorded, timeline.ExecSolved, timeline.ExecReplay}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("lanes = %v, want %v", names, want)
	}
	// The solved lane carries the diff's flip arrows when the solver
	// reordered anything; spawn/join arrows always exist on event lanes.
	if len(tl.Execs[0].Arrows) == 0 {
		t.Error("recorded lane has no spawn/join arrows")
	}
}

func TestScheduleDiffRequiresSolution(t *testing.T) {
	rep := flightRep(t)
	if _, err := rep.ScheduleDiff(); err != nil {
		t.Fatalf("solved rep: %v", err)
	}
	if v, ok := rep.Trace.Reg().Lookup("explain.flips"); !ok {
		t.Error("explain.flips gauge not published")
	} else if v < 0 {
		t.Errorf("explain.flips = %d", v)
	}
	noSol := *rep
	noSol.Solution = nil
	if _, err := noSol.ScheduleDiff(); err == nil {
		t.Error("diff without a solution should error")
	}
}

// TestBuildTimelineFailedRelaxedSolve pins what the timeline of a failed
// portfolio solve shows on a TSO recording, where the ladder starts at
// CNF: one cnf attempt, and the recorded lane alone.
func TestBuildTimelineFailedRelaxedSolve(t *testing.T) {
	prog, err := Compile(dekkerTSOSrc)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Record(prog, RecordOptions{Model: vm.TSO, SeedLimit: 3000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Reproduce(rec, ReproduceOptions{Ctx: ctx})
	if err == nil {
		t.Fatal("a cancelled portfolio solve succeeded")
	}
	if len(rep.Attempts) != 1 || rep.Attempts[0].Solver != "cnf" {
		t.Fatalf("attempts = %+v, want one cnf attempt", rep.Attempts)
	}
	tl, err := rep.BuildTimeline("dekker")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ex := range tl.Execs {
		names = append(names, ex.Name)
	}
	if want := []string{timeline.ExecRecorded}; !reflect.DeepEqual(names, want) {
		t.Fatalf("failed-solve lanes = %v, want %v", names, want)
	}
}
