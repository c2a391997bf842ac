package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// promSeed is the exposition of a registry holding all three kinds.
func promSeed() []byte {
	r := NewRegistry()
	r.Add("clapd.jobs.done", 3)
	r.Set("clapd.queue.depth", 2)
	r.Observe("stage.solve.ns", 5000)
	r.Observe("stage.solve.ns", 1<<22)
	r.Observe("clapd.job.ns", 1<<45)
	return EncodeProm(r.TakeSnapshot())
}

// TestDecodePromRejectsMalformedHistograms feeds histograms EncodeProm
// never writes: falling cumulative counts, le labels other than the fixed
// bounds, a missing or extra bucket, and a family declared twice.
func TestDecodePromRejectsMalformedHistograms(t *testing.T) {
	good := string(promSeed())
	if _, err := DecodeProm([]byte(good)); err != nil {
		t.Fatalf("the seed exposition does not decode: %v", err)
	}
	// The first bucket line of stage_solve_ns: no sample falls in it.
	first := fmt.Sprintf(`stage_solve_ns_bucket{le="%d"}`, HistBounds()[0])
	if !strings.Contains(good, first+" ") {
		t.Fatalf("seed exposition lacks %s:\n%s", first, good)
	}
	for name, bad := range map[string]string{
		"falling":     strings.Replace(good, first+" 0", first+" 5", 1),
		"relabelled":  strings.Replace(good, first, `stage_solve_ns_bucket{le="7"}`, 1),
		"garbage le":  strings.Replace(good, first, `stage_solve_ns_bucket{le="whatever"}`, 1),
		"unlabelled":  strings.Replace(good, first, `stage_solve_ns_bucket`, 1),
		"missing":     strings.Replace(good, first+" 0\n", "", 1),
		"extra":       strings.Replace(good, "stage_solve_ns_sum", `stage_solve_ns_bucket{le="+Inf"} 2`+"\nstage_solve_ns_sum", 1),
		"twice":       good + "# TYPE clapd_queue_depth gauge\n",
		"unsanitized": "# TYPE a.b counter\na.b 1\n",
	} {
		if bad == good {
			t.Fatalf("%s: the edit did not apply", name)
		}
		if _, err := DecodeProm([]byte(bad)); err == nil {
			t.Errorf("%s: DecodeProm accepted\n%s", name, bad)
		}
	}
	// A snapshot taken during a concurrent Observe may count one more
	// sample in _count than in the buckets; that is accepted.
	skew := strings.Replace(good, "stage_solve_ns_count 2", "stage_solve_ns_count 3", 1)
	if _, err := DecodeProm([]byte(skew)); err != nil {
		t.Errorf("a _count ahead of the +Inf bucket was rejected: %v", err)
	}
}

// FuzzDecodeProm: no input panics, a rejected input returns an error, and
// an accepted one re-encodes byte-stably.
func FuzzDecodeProm(f *testing.F) {
	f.Add(promSeed())
	f.Add([]byte("# TYPE x counter\nx 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeProm(data)
		if err != nil {
			return
		}
		once := EncodeProm(s)
		s2, err := DecodeProm(once)
		if err != nil {
			t.Fatalf("the re-encoding of an accepted input does not decode: %v\n%s", err, once)
		}
		if twice := EncodeProm(s2); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not byte-stable:\n%s\n--\n%s", once, twice)
		}
	})
}
