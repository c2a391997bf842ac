// Package timeline is the pipeline's flight recorder: it turns the three
// executions the reproduction touches — the recorded run, the solved SAP
// schedule, and the deterministic replay — into one unified timeline
// artifact. The artifact renders two ways: Chrome trace-event JSON
// (EncodeChrome; loadable in Perfetto or chrome://tracing, one track per
// thread, spawn/join and race-flip arrows as flow events) and a terminal
// ASCII view (RenderASCII) for quick looks.
//
// Everything in the model is logical — event indices, not wall clock — so
// the artifact built from a given trace is byte-identical across runs,
// which is what lets golden tests pin it and diffs of two artifacts mean
// something.
package timeline

import (
	"fmt"

	"repro/internal/constraints"
	"repro/internal/symexec"
	"repro/internal/vm"
)

// Well-known execution names.
const (
	ExecRecorded = "recorded"
	ExecSolved   = "solved"
	ExecReplay   = "replay"
)

// Timeline is the unified artifact: one Execution per run of the program
// the pipeline saw.
type Timeline struct {
	// Program is the benchmark or source name, for display.
	Program string
	Execs   []*Execution
}

// Execution is one interleaving: a set of per-thread event lanes over a
// shared logical clock.
type Execution struct {
	Name string
	// Threads is the lane count (thread ids are 0..Threads-1).
	Threads int
	// Events in increasing Time order.
	Events []Event
	// Arrows are cross-lane edges: spawn→start, exit→join, and the
	// explainability layer's race-flip arrows.
	Arrows []Arrow
}

// Event is one visible operation on a thread's lane.
type Event struct {
	Thread int
	// Time is the logical timestamp: the event's index in the
	// execution's global order.
	Time int64
	// Kind is the operation class ("read", "write", "lock", …), stable
	// across renderers.
	Kind string
	// Label is the display name, e.g. "write g2=1".
	Label string
	// Pos is the source position "line:col" when known.
	Pos string
}

// Arrow kinds.
const (
	ArrowSpawn = "spawn"
	ArrowJoin  = "join"
	ArrowFlip  = "flip"
)

// Arrow is a cross-thread edge between two events, identified by lane and
// logical time.
type Arrow struct {
	Kind       string
	Label      string
	FromThread int
	FromTime   int64
	ToThread   int
	ToTime     int64
}

// FromEvents builds an execution from a VM visible-event capture (the
// recorded run or the replay). Event times are the VM's logical
// timestamps; spawn/join arrows are derived from the start/exit events.
func FromEvents(name string, events []vm.VisibleEvent, threads int) *Execution {
	ex := &Execution{Name: name, Threads: threads}
	// startAt/exitAt find the rendezvous counterparts for arrows.
	startAt := map[int]int64{}
	exitAt := map[int]int64{}
	for _, ev := range events {
		if int(ev.Thread) >= ex.Threads {
			ex.Threads = int(ev.Thread) + 1
		}
		e := Event{
			Thread: int(ev.Thread),
			Time:   ev.Time,
			Kind:   ev.Kind.String(),
			Label:  eventLabel(ev),
		}
		ex.Events = append(ex.Events, e)
		switch ev.Kind {
		case vm.EvStart:
			startAt[int(ev.Thread)] = ev.Time
		case vm.EvExit:
			exitAt[int(ev.Thread)] = ev.Time
		}
	}
	for _, ev := range events {
		switch ev.Kind {
		case vm.EvSpawn:
			if t, ok := startAt[int(ev.Other)]; ok {
				ex.Arrows = append(ex.Arrows, Arrow{
					Kind: ArrowSpawn, Label: fmt.Sprintf("spawn t%d", ev.Other),
					FromThread: int(ev.Thread), FromTime: ev.Time,
					ToThread: int(ev.Other), ToTime: t,
				})
			}
		case vm.EvJoin:
			if t, ok := exitAt[int(ev.Other)]; ok {
				ex.Arrows = append(ex.Arrows, Arrow{
					Kind: ArrowJoin, Label: fmt.Sprintf("join t%d", ev.Other),
					FromThread: int(ev.Other), FromTime: t,
					ToThread: int(ev.Thread), ToTime: ev.Time,
				})
			}
		}
	}
	return ex
}

// eventLabel renders a VM event without its thread prefix.
func eventLabel(e vm.VisibleEvent) string {
	switch e.Kind {
	case vm.EvRead, vm.EvWrite, vm.EvDrain:
		return fmt.Sprintf("%s g%d@%d=%d", e.Kind, e.Var, e.Addr, e.Value)
	case vm.EvSpawn, vm.EvJoin:
		return fmt.Sprintf("%s t%d", e.Kind, e.Other)
	case vm.EvLock, vm.EvUnlock:
		return fmt.Sprintf("%s m%d", e.Kind, e.Obj)
	case vm.EvWaitBegin, vm.EvWaitEnd:
		return fmt.Sprintf("%s c%d/m%d", e.Kind, e.Obj, e.Obj2)
	case vm.EvSignal, vm.EvBroadcast:
		return fmt.Sprintf("%s c%d", e.Kind, e.Obj)
	}
	return e.Kind.String()
}

// FromOrder builds an execution from a total SAP sequence, the solved
// schedule. Times are sequence indices. When a witness is given, read
// events are labeled with the concrete value the schedule makes them
// observe.
func FromOrder(name string, sys *constraints.System, order []constraints.SAPRef, w *constraints.Witness) *Execution {
	ex := &Execution{Name: name, Threads: len(sys.Threads)}
	startAt := map[int]int64{}
	exitAt := map[int]int64{}
	for i, r := range order {
		s := sys.SAP(r)
		e := Event{
			Thread: int(s.Thread),
			Time:   int64(i),
			Kind:   s.Kind.String(),
			Label:  sapLabel(s, w),
		}
		if s.Pos.Line != 0 {
			e.Pos = s.Pos.String()
		}
		ex.Events = append(ex.Events, e)
		switch s.Kind {
		case symexec.SAPStart:
			startAt[int(s.Thread)] = int64(i)
		case symexec.SAPExit:
			exitAt[int(s.Thread)] = int64(i)
		}
	}
	for i, r := range order {
		s := sys.SAP(r)
		switch s.Kind {
		case symexec.SAPFork:
			if t, ok := startAt[int(s.Other)]; ok {
				ex.Arrows = append(ex.Arrows, Arrow{
					Kind: ArrowSpawn, Label: fmt.Sprintf("spawn t%d", s.Other),
					FromThread: int(s.Thread), FromTime: int64(i),
					ToThread: int(s.Other), ToTime: t,
				})
			}
		case symexec.SAPJoin:
			if t, ok := exitAt[int(s.Other)]; ok {
				ex.Arrows = append(ex.Arrows, Arrow{
					Kind: ArrowJoin, Label: fmt.Sprintf("join t%d", s.Other),
					FromThread: int(s.Other), FromTime: t,
					ToThread: int(s.Thread), ToTime: int64(i),
				})
			}
		}
	}
	return ex
}

// sapLabel renders a SAP without its thread/seq prefix; reads get their
// witness value when one is known.
func sapLabel(s *symexec.SAP, w *constraints.Witness) string {
	switch s.Kind {
	case symexec.SAPRead:
		if w != nil && s.Sym != nil {
			if v, ok := w.Env[s.Sym.ID]; ok {
				return fmt.Sprintf("read g%d@%d=%d", s.Var, s.Addr, v)
			}
		}
		return fmt.Sprintf("read g%d@%d", s.Var, s.Addr)
	case symexec.SAPWrite:
		return fmt.Sprintf("write g%d@%d", s.Var, s.Addr)
	case symexec.SAPFork, symexec.SAPJoin:
		return fmt.Sprintf("%s t%d", s.Kind, s.Other)
	case symexec.SAPLock, symexec.SAPUnlock:
		return fmt.Sprintf("%s m%d", s.Kind, s.Mutex)
	case symexec.SAPWaitBegin, symexec.SAPWaitEnd:
		return fmt.Sprintf("%s c%d/m%d", s.Kind, s.Cond, s.Mutex)
	case symexec.SAPSignal, symexec.SAPBroadcast:
		return fmt.Sprintf("%s c%d", s.Kind, s.Cond)
	}
	return s.Kind.String()
}
