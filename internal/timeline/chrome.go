package timeline

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Chrome trace-event emission. The output follows the Trace Event Format
// ("JSON Object Format" flavor: a top-level object with a traceEvents
// array), which Perfetto and chrome://tracing load directly:
//
//   - each Execution is one process (pid); a process_name metadata event
//     names it ("recorded", "solved", "replay"),
//   - each thread is one track (tid), named by a thread_name metadata
//     event,
//   - each Event is a complete ("X") slice of duration 1 at its logical
//     timestamp (the ts unit is microseconds, but nothing here is wall
//     clock — one tick per event keeps slices visible and diffs stable),
//   - each Arrow is a flow-event pair ("s" start, "f" finish with bp:"e")
//     binding to the slices at its endpoints.
//
// Marshaling uses structs only — no maps — so field order is fixed and
// the bytes are deterministic for a given timeline. Events are emitted
// one per line for greppable, diffable goldens.

// chromeArgs is the args payload; all fields optional.
type chromeArgs struct {
	// Name carries the process/thread name on "M" metadata events.
	Name string `json:"name,omitempty"`
	// SortIndex orders processes in the viewer (recorded, solved, replay).
	SortIndex int `json:"sort_index,omitempty"`
	// Pos is the SAP's source position "line:col".
	Pos string `json:"pos,omitempty"`
}

// chromeEvent is one trace event.
type chromeEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	Ts   int64       `json:"ts"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	Dur  int64       `json:"dur,omitempty"`
	Cat  string      `json:"cat,omitempty"`
	ID   int         `json:"id,omitempty"`
	BP   string      `json:"bp,omitempty"`
	Args *chromeArgs `json:"args,omitempty"`
}

// chromeTrace is the top-level object.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// EncodeChrome renders the timeline as Chrome trace-event JSON bytes.
// The encoding is pure: same timeline in, same bytes out.
func EncodeChrome(tl *Timeline) ([]byte, error) {
	var evs []chromeEvent
	arrowID := 0
	for i, ex := range tl.Execs {
		pid := i + 1
		name := ex.Name
		if tl.Program != "" {
			name = tl.Program + ": " + ex.Name
		}
		meta := &chromeArgs{Name: name, SortIndex: pid}
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Args: meta,
		})
		for t := 0; t < ex.Threads; t++ {
			evs = append(evs, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: t + 1,
				Args: &chromeArgs{Name: fmt.Sprintf("t%d", t)},
			})
		}
		for _, e := range ex.Events {
			ce := chromeEvent{
				Name: e.Label, Ph: "X", Ts: e.Time, Dur: 1,
				Pid: pid, Tid: e.Thread + 1, Cat: e.Kind,
			}
			if e.Pos != "" {
				ce.Args = &chromeArgs{Pos: e.Pos}
			}
			evs = append(evs, ce)
		}
		for _, a := range ex.Arrows {
			arrowID++
			evs = append(evs,
				chromeEvent{
					Name: a.Label, Ph: "s", Ts: a.FromTime, Pid: pid,
					Tid: a.FromThread + 1, Cat: a.Kind, ID: arrowID,
				},
				chromeEvent{
					Name: a.Label, Ph: "f", Ts: a.ToTime, Pid: pid,
					Tid: a.ToThread + 1, Cat: a.Kind, ID: arrowID, BP: "e",
				})
		}
	}
	var buf bytes.Buffer
	buf.WriteString("{\"traceEvents\":[\n")
	for i, e := range evs {
		b, err := json.Marshal(e)
		if err != nil {
			return nil, err
		}
		buf.WriteByte(' ')
		buf.Write(b)
		if i != len(evs)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]}\n")
	return buf.Bytes(), nil
}

// Validate checks that data is well-formed Chrome trace-event JSON of the
// shape EncodeChrome emits: a traceEvents array whose members carry a
// known phase, non-negative timestamps, positive pids, and whose flow
// events pair up (every "s" has an "f" with the same id and vice versa).
// Golden tests and the CI smoke job share this check.
func Validate(data []byte) error {
	var tr struct {
		TraceEvents []struct {
			Name *string `json:"name"`
			Ph   string  `json:"ph"`
			Ts   int64   `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			ID   int     `json:"id"`
			BP   string  `json:"bp"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		return fmt.Errorf("timeline: invalid JSON: %w", err)
	}
	if tr.TraceEvents == nil {
		return fmt.Errorf("timeline: missing traceEvents array")
	}
	flows := map[int][2]int{} // id -> {starts, finishes}
	for i, e := range tr.TraceEvents {
		if e.Name == nil || *e.Name == "" {
			return fmt.Errorf("timeline: event %d has no name", i)
		}
		switch e.Ph {
		case "X", "M", "s", "f":
		default:
			return fmt.Errorf("timeline: event %d has unknown phase %q", i, e.Ph)
		}
		if e.Ts < 0 {
			return fmt.Errorf("timeline: event %d has negative timestamp %d", i, e.Ts)
		}
		if e.Pid <= 0 {
			return fmt.Errorf("timeline: event %d has non-positive pid %d", i, e.Pid)
		}
		switch e.Ph {
		case "s":
			c := flows[e.ID]
			c[0]++
			flows[e.ID] = c
		case "f":
			if e.BP != "e" {
				return fmt.Errorf("timeline: flow finish %d lacks bp:\"e\"", i)
			}
			c := flows[e.ID]
			c[1]++
			flows[e.ID] = c
		}
	}
	for id, c := range flows {
		if c[0] != c[1] {
			return fmt.Errorf("timeline: flow id %d has %d starts but %d finishes", id, c[0], c[1])
		}
	}
	return nil
}
