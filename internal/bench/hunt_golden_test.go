package bench

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// huntBases are the hunt bases the golden pins: the default base and the
// next e2ebench hunt stride, so each program's line pair covers two
// disjoint seed ranges.
var huntBases = []int64{0, 1 << 20}

// TestHuntGolden pins what core.Record finds for every evaluation program
// at each hunt base with the program's own seed budget: the winning seed,
// its chaos level, the visible-event count and the SHA-256 of the framed
// path log. Every recording e2ebench measures and every hunt-derived
// golden starts from such a hunt, so a change to the VM's scheduling step
// or to the hunt loop that alters any choice shows here first.
func TestHuntGolden(t *testing.T) {
	var b strings.Builder
	for _, bm := range All() {
		prog, err := core.Compile(bm.Source)
		if err != nil {
			t.Fatalf("%s: compile: %v", bm.Name, err)
		}
		for _, base := range huntBases {
			rec, err := core.Record(prog, core.RecordOptions{
				Model: bm.Model, Inputs: bm.Inputs, Seed: base, SeedLimit: bm.SeedLimit,
			})
			if err != nil {
				t.Fatalf("%s at base %d: %v", bm.Name, base, err)
			}
			sum := sha256.Sum256(rec.Log.EncodeFramed(trace.FramedOptions{}))
			fmt.Fprintf(&b, "%s base=%d seed=%d chaos=%d visible=%d log=%x\n",
				bm.Name, base, rec.Seed, rec.Chaos, rec.Run.VisibleEvents, sum)
		}
	}
	checkGolden(t, "testdata/hunts.txt", b.String())
}
