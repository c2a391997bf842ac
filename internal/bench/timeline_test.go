package bench

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/timeline"
)

// TestTimelineAndExplainGolden pins the flight-recorder acceptance over
// every benchmark, solved on the product path:
//
//   - the timeline encodes to valid Chrome trace-event JSON,
//     byte-identical across repeated builds on the same trace,
//   - the timeline carries all three lanes (recorded, solved, replay),
//   - the schedule diff reports at least one flipped SAP pair — or, when
//     the solver reproduced the recorded conflict order exactly, the
//     reversal probe proves a racing pair's recorded order essential,
//     which is the strongest verdict the report can make.
func TestTimelineAndExplainGolden(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p := preparedFor(t, b)
			rep, err := core.Reproduce(p.Recording, core.ReproduceOptions{CaptureReplay: true})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Outcome.Reproduced {
				t.Fatal("bug not reproduced")
			}

			tl, err := rep.BuildTimeline(b.Name)
			if err != nil {
				t.Fatal(err)
			}
			if len(tl.Execs) != 3 {
				names := make([]string, 0, len(tl.Execs))
				for _, ex := range tl.Execs {
					names = append(names, ex.Name)
				}
				t.Fatalf("want 3 lanes (recorded, solved, replay), got %v", names)
			}
			enc, err := timeline.EncodeChrome(tl)
			if err != nil {
				t.Fatal(err)
			}
			if err := timeline.Validate(enc); err != nil {
				t.Fatalf("invalid trace-event JSON: %v", err)
			}

			// Byte determinism: rebuild from the same reproduction.
			tl2, err := rep.BuildTimeline(b.Name)
			if err != nil {
				t.Fatal(err)
			}
			enc2, err := timeline.EncodeChrome(tl2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("timeline JSON not byte-deterministic: %d vs %d bytes", len(enc), len(enc2))
			}

			d, err := rep.ScheduleDiff()
			if err != nil {
				t.Fatal(err)
			}
			if d.TotalFlips == 0 {
				essential := false
				for _, pv := range d.Pivots {
					if pv.Known && pv.Essential {
						essential = true
					}
				}
				if !essential {
					t.Fatalf("zero flips and no provably essential racing pair (%d conflicting pairs, %d pivots)",
						d.ConflictingPairs, len(d.Pivots))
				}
			}
			t.Logf("%s: %dB timeline, %d/%d flips, %d remaps",
				b.Name, len(enc), d.TotalFlips, d.ConflictingPairs, len(d.Remaps))
		})
	}
}
