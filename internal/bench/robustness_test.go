// Robustness suite: every Table 1 benchmark is exercised under adversarial
// conditions — crash-truncated and bit-flipped logs through the salvage
// decoder, and solver stages forced to fail or panic under the portfolio.
// The record phase is the expensive part, so one Prepared per benchmark is
// shared across the whole suite (and the Table 1 reproduction test).
package bench

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/symexec"
	"repro/internal/trace"
)

type oncePrep struct {
	once sync.Once
	p    *Prepared
	err  error
}

var prepCache = struct {
	mu sync.Mutex
	m  map[string]*oncePrep
}{m: map[string]*oncePrep{}}

// preparedFor records and analyzes a benchmark at most once per test
// process, no matter how many tests need it.
func preparedFor(tb testing.TB, b Benchmark) *Prepared {
	tb.Helper()
	prepCache.mu.Lock()
	op, ok := prepCache.m[b.Name]
	if !ok {
		op = &oncePrep{}
		prepCache.m[b.Name] = op
	}
	prepCache.mu.Unlock()
	op.once.Do(func() { op.p, op.err = Prepare(b) })
	if op.err != nil {
		tb.Fatal(op.err)
	}
	return op.p
}

// blockPrefixes decodes every thread of a log to its flat block sequence.
func blockPrefixes(t *testing.T, p *Prepared, log *trace.PathLog) [][]int {
	t.Helper()
	out := make([][]int, len(log.Threads))
	for i := range log.Threads {
		blocks, err := symexec.BlockPrefix(p.Recording.Paths, &log.Threads[i])
		if err != nil {
			t.Fatalf("thread %d: salvaged log does not decode to blocks: %v", i, err)
		}
		ids := make([]int, len(blocks))
		for j, b := range blocks {
			ids[j] = int(b)
		}
		out[i] = ids
	}
	return out
}

func isPrefix(short, long []int) bool {
	if len(short) > len(long) {
		return false
	}
	for i, v := range short {
		if long[i] != v {
			return false
		}
	}
	return true
}

// TestBenchmarkSalvageTruncation cuts every benchmark's framed log at frame
// boundaries and mid-frame, and checks each salvaged thread still decodes
// to a valid block sequence that prefixes the full recording's.
func TestBenchmarkSalvageTruncation(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p := preparedFor(t, b)
			buf := p.Recording.Log.EncodeFramed(trace.FramedOptions{EventsPerFrame: 16})
			full := blockPrefixes(t, p, p.Recording.Log)
			spans, err := trace.FrameSpans(buf)
			if err != nil {
				t.Fatal(err)
			}
			cuts := []int{0, 1, len(buf)}
			for _, s := range spans {
				cuts = append(cuts, s.Off+s.Len, s.Off+s.Len/2)
			}
			for _, n := range cuts {
				if n > len(buf) {
					continue
				}
				sl, rep := trace.DecodePathLogSalvage(faultinject.Truncate(buf, n))
				if rep.BytesSalvaged+rep.BytesSkipped != rep.BytesTotal {
					t.Fatalf("truncate to %dB: salvage accounting broken: %+v", n, rep)
				}
				got := blockPrefixes(t, p, sl)
				for i := range got {
					if !isPrefix(got[i], full[i]) {
						t.Fatalf("truncate to %dB: thread %d blocks are not a prefix (%d vs %d)",
							n, i, len(got[i]), len(full[i]))
					}
				}
			}
		})
	}
}

// TestBenchmarkSalvageCorruptions feeds seeded random corruptions of every
// benchmark's log through salvage and the analysis pipeline: nothing may
// panic, and salvaged threads still decode to block-sequence prefixes.
func TestBenchmarkSalvageCorruptions(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p := preparedFor(t, b)
			buf := p.Recording.Log.EncodeFramed(trace.FramedOptions{EventsPerFrame: 16})
			full := blockPrefixes(t, p, p.Recording.Log)
			c := faultinject.NewCorrupter(0xC1A9)
			for i := 0; i < 48; i++ {
				mut, m := c.Mutate(buf)
				sl, _ := trace.DecodePathLogSalvage(mut)
				got := blockPrefixes(t, p, sl)
				for ti := range got {
					if ti < len(full) && !isPrefix(got[ti], full[ti]) {
						t.Fatalf("mutation %v: thread %d blocks are not a prefix", m, ti)
					}
				}
				// The strict decoders and the analysis may reject the mutant,
				// but they must do so with an error, not a panic.
				if _, err := trace.DecodeFramedPathLog(mut); err == nil && !trace.IsFramed(mut) {
					t.Fatalf("mutation %v: strict decode accepted an unframed buffer", m)
				}
				rec := *p.Recording
				rec.Log = sl
				_, _ = rec.Analyze()
			}
		})
	}
}

// TestPortfolioFallbackReproduces is the headline robustness claim: with
// the preferred sequential solver forced to fail, the portfolio still
// reproduces every benchmark bug through its CNF step, and the attempt
// trail says exactly what happened.
func TestPortfolioFallbackReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("portfolio sweep is slow")
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			p := preparedFor(t, b)
			faultinject.Enable("solver.sequential", faultinject.Failure{})
			defer faultinject.Reset()
			rep, err := core.Reproduce(p.Recording, core.ReproduceOptions{Solver: core.Portfolio})
			if err != nil {
				t.Fatalf("portfolio did not recover from an injected sequential failure: %v", err)
			}
			if rep.Outcome == nil || !rep.Outcome.Reproduced {
				t.Fatal("bug not reproduced via fallback")
			}
			if len(rep.Attempts) != 2 {
				t.Fatalf("want a two-step trail, got %+v", rep.Attempts)
			}
			if a := rep.Attempts[0]; a.Solver != "sequential" || a.Outcome != "fault injected" {
				t.Fatalf("first attempt should be the injected sequential failure: %+v", a)
			}
			won := rep.Attempts[1]
			if won.Solver != "cnf" || won.Outcome != "solved" {
				t.Fatalf("second attempt should be a CNF solve: %+v", won)
			}
			t.Logf("%s: solved by cnf in %v", b.Name, won.Elapsed)
		})
	}
}

// TestPortfolioRecoversPanic proves a panicking solver stage degrades into
// a recorded attempt instead of killing the pipeline.
func TestPortfolioRecoversPanic(t *testing.T) {
	b, _ := ByName("sim_race")
	p := preparedFor(t, b)
	faultinject.Enable("solver.sequential", faultinject.Failure{Panic: "injected solver panic"})
	defer faultinject.Reset()
	rep, err := core.Reproduce(p.Recording, core.ReproduceOptions{Solver: core.Portfolio})
	if err != nil {
		t.Fatalf("portfolio did not recover the panic: %v", err)
	}
	if !rep.Outcome.Reproduced {
		t.Fatal("bug not reproduced after a panicking stage")
	}
	if rep.Attempts[0].Outcome != "panicked" {
		t.Fatalf("panic not recorded in the trail: %+v", rep.Attempts[0])
	}
}
