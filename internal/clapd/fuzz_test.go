package clapd

import (
	"errors"
	"testing"

	"repro/internal/bench"
)

// FuzzDecodeBundle drives every upload's path through the daemon with
// arbitrary bytes: the ingest decoder, then the worker's salvage decode
// and rehydration of the uploaded program. The seeds are `clap bundle`
// output for two programs.
func FuzzDecodeBundle(f *testing.F) {
	raw, _ := testBundleBytes(f)
	f.Add(raw)
	bm, _ := bench.ByName("pbzip2")
	p, err := bench.Prepare(bm)
	if err != nil {
		f.Fatal(err)
	}
	raw, err = FromRecording(p.Recording, bm.Source, bm.Name, "cnf").Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBundle(data, 0)
		if err != nil {
			var bad *BadBundleError
			var big *TooLargeError
			if !errors.As(err, &bad) && !errors.As(err, &big) {
				t.Fatalf("rejection is neither *BadBundleError nor *TooLargeError: %T %v", err, err)
			}
			return
		}
		digest := b.Digest()
		enc, err := b.Encode()
		if err != nil {
			t.Fatalf("encode of an accepted bundle: %v", err)
		}
		again, err := DecodeBundle(enc, int64(len(enc)))
		if err != nil {
			t.Fatalf("re-decode of an accepted bundle: %v", err)
		}
		if again.Digest() != digest {
			t.Fatal("digest changed across Encode")
		}
		// Errors are fine; panics are not.
		b.DecodeLog()
		b.Rehydrate()
	})
}
