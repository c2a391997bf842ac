// Prometheus text exposition over the stable dotted names, hand-rolled on
// the stdlib so the daemon's /metrics endpoint costs no dependency. The
// encoder is deterministic — families sorted by name, fixed bucket
// rendering — so the same snapshot always produces the same bytes, which
// both the tests and "diff two scrapes" workflows rely on.
package obs

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// PromName converts a stable dotted metric name to its Prometheus form:
// every character outside [a-zA-Z0-9_] becomes an underscore
// ("clapd.jobs.done" → "clapd_jobs_done"). The mapping is idempotent but
// not invertible.
func PromName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// EncodeProm renders a snapshot in the Prometheus text exposition format.
// Counters and gauges are single samples; histograms render the standard
// cumulative _bucket{le="..."} series over the fixed integer-ns bounds
// (HistBounds) plus +Inf, _sum and _count.
func EncodeProm(s RegSnapshot) []byte {
	type fam struct {
		name string
		kind Kind
	}
	fams := make([]fam, 0, len(s.Counters)+len(s.Gauges)+len(s.Hists))
	for n := range s.Counters {
		fams = append(fams, fam{n, KindCounter})
	}
	for n := range s.Gauges {
		fams = append(fams, fam{n, KindGauge})
	}
	for n := range s.Hists {
		fams = append(fams, fam{n, KindHistogram})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b bytes.Buffer
	for _, f := range fams {
		pn := PromName(f.name)
		switch f.kind {
		case KindCounter:
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[f.name])
		case KindGauge:
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[f.name])
		case KindHistogram:
			h := s.Hists[f.name]
			fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
			cum := int64(0)
			for i, bound := range HistBounds() {
				if i < len(h.Buckets) {
					cum += h.Buckets[i]
				}
				fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", pn, bound, cum)
			}
			if len(h.Buckets) > histBuckets {
				cum += h.Buckets[histBuckets]
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", pn, cum)
			fmt.Fprintf(&b, "%s_sum %d\n", pn, h.Sum)
			fmt.Fprintf(&b, "%s_count %d\n", pn, h.Count)
		}
	}
	return b.Bytes()
}

// DecodeProm parses text produced by EncodeProm back into a snapshot.
// Metric names stay in their sanitized underscore form — the dotted
// originals are not recoverable — so decode→encode round-trips
// byte-identically while a decoded snapshot is keyed differently from the
// registry that produced it. `clap top` polls a daemon through this, so
// it rejects what EncodeProm never writes and a decoded snapshot could not
// mean: a family name PromName would change or declared twice, and a
// histogram whose le labels are not HistBounds in order with +Inf last or
// whose cumulative counts fall. It does not hold _count to the +Inf
// bucket: a snapshot taken during a concurrent Observe may differ there.
func DecodeProm(data []byte) (RegSnapshot, error) {
	s := RegSnapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistSnapshot{},
	}
	hists := map[string]*histAcc{}
	histAt := func(name string) *histAcc {
		h, ok := hists[name]
		if !ok {
			h = &histAcc{}
			hists[name] = h
		}
		return h
	}
	kinds := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
				if PromName(f[2]) != f[2] {
					return s, fmt.Errorf("obs: prom family name %q is not sanitized", f[2])
				}
				if _, dup := kinds[f[2]]; dup {
					return s, fmt.Errorf("obs: prom family %s declared twice", f[2])
				}
				kinds[f[2]] = f[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return s, fmt.Errorf("obs: malformed prom sample %q", line)
		}
		ref, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseInt(valStr, 10, 64)
		if err != nil {
			return s, fmt.Errorf("obs: prom sample %q: %v", line, err)
		}
		name := ref
		if i := strings.IndexByte(ref, '{'); i >= 0 {
			name = ref[:i]
		}
		base := func(suffix string) (string, bool) {
			b := strings.TrimSuffix(name, suffix)
			return b, b != name && kinds[b] == "histogram"
		}
		switch {
		case kinds[name] == "counter":
			s.Counters[name] = val
		case kinds[name] == "gauge":
			s.Gauges[name] = val
		default:
			if b, ok := base("_bucket"); ok {
				if err := histAt(b).bucket(ref[len(name):], val); err != nil {
					return s, fmt.Errorf("obs: histogram %s: %v", b, err)
				}
			} else if b, ok := base("_sum"); ok {
				histAt(b).sum = val
			} else if b, ok := base("_count"); ok {
				histAt(b).count = val
			} else {
				return s, fmt.Errorf("obs: prom sample %q has no # TYPE", ref)
			}
		}
	}
	for name, h := range hists {
		if len(h.cum) != histBuckets+1 {
			return s, fmt.Errorf("obs: histogram %s has %d buckets, want %d", name, len(h.cum), histBuckets+1)
		}
		hs := HistSnapshot{Count: h.count, Sum: h.sum, Buckets: make([]int64, histBuckets+1)}
		prev := int64(0)
		for i, c := range h.cum {
			hs.Buckets[i] = c - prev
			prev = c
		}
		s.Hists[name] = hs
	}
	return s, nil
}

// histAcc accumulates one histogram family's samples.
type histAcc struct {
	cum   []int64
	sum   int64
	count int64
}

// bucket appends the next cumulative bucket sample: its labels must be
// le="<the next bound of HistBounds>", le="+Inf" last, and its count must
// not fall below the previous bucket's (or below zero).
func (h *histAcc) bucket(labels string, val int64) error {
	i := len(h.cum)
	if i > histBuckets {
		return fmt.Errorf("more than %d buckets", histBuckets+1)
	}
	le := "+Inf"
	if i < histBuckets {
		le = strconv.FormatInt(HistBounds()[i], 10)
	}
	if want := `{le="` + le + `"}`; labels != want {
		return fmt.Errorf("bucket %d has labels %q, want %s", i, labels, want)
	}
	prev := int64(0)
	if i > 0 {
		prev = h.cum[i-1]
	}
	if val < prev {
		return fmt.Errorf("cumulative count falls from %d to %d at le=%q", prev, val, le)
	}
	h.cum = append(h.cum, val)
	return nil
}
