package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// A span times one call the benchmark makes into a layer. Spans of one op
// share Op; an op's root span, named "op", has Parent -1. Calls made only
// to time a layer, outside the op's own path, hang off other roots with
// the same Op.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Input names an op root's input: its program and digest prefix.
	Input string `json:"input,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans and per-op counts in memory until the run ends. A nil
// tracer records nothing.
type tracer struct {
	t0     time.Time
	spans  []span
	counts map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string][]float64{}}
}

// start opens a span and returns its id.
func (t *tracer) start(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans), Parent: parent, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
}

// add records a span whose bounds were observed elsewhere (the daemon's
// event log); start and end are offsets from the tracer's start.
func (t *tracer) add(op, parent int, name string, start, end int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans), Parent: parent, Name: name, Start: start, End: end})
	return len(t.spans) - 1
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// count records one op's value of a per-layer count.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.counts[name] = append(t.counts[name], v)
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		covered += v.b - v.a
		end = v.b
	}
	return parent.dur() - covered
}

// label names the input of the op root id.
func (t *tracer) label(id int, prog, digest string) {
	if t == nil {
		return
	}
	t.spans[id].Input = fmt.Sprintf("%s %.12s", prog, digest)
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// roots returns the op root spans named name.
func (t *tracer) roots(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Parent == -1 && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// unattributedShare is the mean, over op roots named name, of the share of
// the root's duration that no child span covers.
func (t *tracer) unattributedShare(name string) float64 {
	var shares []float64
	for _, r := range t.roots(name) {
		if r.dur() > 0 {
			shares = append(shares, float64(selfTime(r, t.children(r.ID)))/float64(r.dur()))
		}
	}
	return mean(shares)
}

// layerNS is the mean time per op spent in spans named name, over the ops
// that made that call (0 when none did).
func (t *tracer) layerNS(name string) float64 {
	var xs []float64
	for _, d := range t.opNS(name) {
		xs = append(xs, float64(d))
	}
	return mean(xs)
}

// opNS returns, per op id, the total duration of its spans named name.
func (t *tracer) opNS(name string) map[int]int64 {
	out := map[int]int64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] += s.dur()
		}
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
