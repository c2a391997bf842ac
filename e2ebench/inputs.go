package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/clapd"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/vm"
)

// The program sets. Data-race programs solve in milliseconds; the hard
// ones are mutual-exclusion and intentional-race programs whose solving
// dominates everything else.
var (
	dataRacePrograms = []string{"sim_race", "pbzip2", "aget", "bbuf", "swarm", "pfscan"}
	hardPrograms     = []string{"apache", "racey", "bakery", "dekker", "peterson"}
)

// huntStride separates the hunt bases of one program. A hunt tries at most
// SeedLimit consecutive seeds from its base (20000 for bakery, the most),
// so bases this far apart never share a seed; adjacent bases often win
// with the same seed and give the same recording.
const huntStride = 1 << 20

// huntBase is the k-th hunt base of a workload seed.
func huntBase(seed int64, k int) int64 {
	slot := (splitmix64(uint64(seed)) + uint64(k)) % (1 << 20)
	return int64(slot) * huntStride
}

// splitmix64 scrambles a seed so nearby workload seeds get unrelated bases.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// input is one recorded failure, packaged as the bundle `clap bundle`
// uploads.
type input struct {
	Program  string
	Base     int64
	Raw      []byte
	Digest   string
	LogBytes int
}

// benchmark looks up one of the eleven evaluation programs.
func benchmark(name string) (bench.Benchmark, error) {
	b, ok := bench.ByName(name)
	if !ok {
		return b, fmt.Errorf("unknown program %q", name)
	}
	return b, nil
}

// recordOptions are the bug-hunt settings of `clap bundle <program>`: the
// program's model, inputs and seed budget, hunting from base.
func recordOptions(b bench.Benchmark, base int64) core.RecordOptions {
	return core.RecordOptions{Model: b.Model, Inputs: b.Inputs, Seed: base, SeedLimit: b.SeedLimit}
}

// checkRecording verifies a recorder output: the failure is an assertion
// and the framed log salvage-decodes clean.
func checkRecording(rec *core.Recording, framed []byte) error {
	if rec.Failure == nil || rec.Failure.Kind != vm.FailAssert {
		return fmt.Errorf("recording holds no assertion failure (%v)", rec.Failure)
	}
	if _, rep := trace.DecodePathLogSalvage(framed); !rep.Clean() {
		return fmt.Errorf("framed log does not decode clean: %s", rep)
	}
	return nil
}

// makeBundles records perProg failures of each program at the seed's hunt
// bases, skipping a base whose recording duplicates an earlier bundle, and
// returns them program by program.
func makeBundles(progs []string, perProg int, seed int64) ([]input, error) {
	seen := map[string]bool{}
	var out []input
	for _, name := range progs {
		b, err := benchmark(name)
		if err != nil {
			return nil, err
		}
		prog, err := core.Compile(b.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		got := 0
		for k := 0; got < perProg; k++ {
			if k >= 4*perProg {
				return nil, fmt.Errorf("%s: only %d distinct recordings in %d hunts", name, got, k)
			}
			base := huntBase(seed, k)
			rec, err := core.Record(prog, recordOptions(b, base))
			if err != nil {
				return nil, fmt.Errorf("%s at hunt base %d: %w", name, base, err)
			}
			bu := clapd.FromRecording(rec, b.Source, b.Name, "")
			if err := checkRecording(rec, bu.Log); err != nil {
				return nil, fmt.Errorf("%s at hunt base %d: %w", name, base, err)
			}
			raw, err := bu.Encode()
			if err != nil {
				return nil, err
			}
			d := bu.Digest()
			if seen[d] {
				continue
			}
			seen[d] = true
			out = append(out, input{Program: name, Base: base, Raw: raw, Digest: d, LogBytes: len(bu.Log)})
			got++
		}
	}
	return out, nil
}

// shuffled returns the inputs in an order drawn from the seed, so a closed
// loop does not run one program's recordings back to back.
func shuffled(in []input, seed int64) []input {
	out := append([]input(nil), in...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// inputSetDigest names an input set: two runs that print the same digest
// measured the same inputs.
func inputSetDigest(in []input) string {
	h := sha256.New()
	for _, x := range in {
		h.Write([]byte(x.Digest))
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(x.Base))
		h.Write(n[:])
		h.Write([]byte(x.Program))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// meanLogBytes is the mean framed path-log size over the inputs.
func meanLogBytes(in []input) float64 {
	xs := make([]float64, len(in))
	for i, x := range in {
		xs[i] = float64(x.LogBytes)
	}
	return mean(xs)
}
