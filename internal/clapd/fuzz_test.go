package clapd

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
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

// FuzzReplayJournal replays arbitrary bytes as a journal file. No input
// may panic. Every entry returned must carry a valid state and digest, one
// per digest, ordered by sequence number with digests breaking ties;
// DroppedBytes must cover exactly the bytes after the Entries intact
// lines; and compacting the entries as OpenJournal does must replay to
// the same entries, in the same order, with a clean recovery. The seeds
// are a compacted journal, one with a torn last line, one with a bad state
// name, one whose entries share a sequence number and one whose first
// line ends in "\r\n".
func FuzzReplayJournal(f *testing.F) {
	dA, dB, dC := testDigest(0x41), testDigest(0x42), testDigest(0x43)
	compacted := line(1, dA, StateDone, 1) + line(2, dB, StateQueued, 0)
	f.Add([]byte(compacted))
	f.Add([]byte(compacted + line(3, dB, StateRunning, 1)[:30]))
	f.Add([]byte(compacted + `{"seq":3,"digest":"` + dB + `","state":"exploded"}` + "\n"))
	f.Add([]byte(line(5, dC, StateQueued, 0) + line(5, dA, StateQueued, 0) + line(5, dB, StateRetrying, 2)))
	crlf := line(1, dA, StateQueued, 0)
	f.Add([]byte(crlf[:len(crlf)-1] + "\r\n" + line(2, dB, StateDone, 1) + "garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, rec, err := ReadJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for i, e := range entries {
			if !e.State.valid() || !validDigest(e.Digest) {
				t.Fatalf("entry %d has state %q, digest %q", i, e.State, e.Digest)
			}
			if seen[e.Digest] {
				t.Fatalf("digest %s replayed twice", e.Digest)
			}
			seen[e.Digest] = true
			if i > 0 {
				if p := entries[i-1]; p.Seq > e.Seq || p.Seq == e.Seq && p.Digest > e.Digest {
					t.Fatalf("entries %d and %d out of order: seq %d %s, seq %d %s", i-1, i, p.Seq, p.Digest, e.Seq, e.Digest)
				}
			}
		}
		intact := 0
		for i := 0; i < rec.Entries; i++ {
			nl := bytes.IndexByte(data[intact:], '\n')
			if nl < 0 {
				t.Fatalf("%d intact lines reported, the input has %d", rec.Entries, i)
			}
			intact += nl + 1
		}
		if rec.DroppedBytes != len(data)-intact || (rec.DroppedBytes == 0) != (rec.DroppedReason == "") {
			t.Fatalf("%d intact lines end at byte %d of %d, recovery reports %+v", rec.Entries, intact, len(data), rec)
		}
		wal, err := compactJournal(entries)
		if err != nil {
			t.Fatal(err)
		}
		again := t.TempDir()
		if err := os.WriteFile(filepath.Join(again, journalName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		replayed, rec2, err := ReadJournal(again)
		if err != nil {
			t.Fatal(err)
		}
		if rec2.Entries != len(entries) || rec2.DroppedBytes != 0 || rec2.DroppedReason != "" {
			t.Fatalf("compacted journal of %d entries recovers as %+v", len(entries), rec2)
		}
		if !slices.Equal(replayed, entries) {
			t.Fatalf("compacted journal replays as\n%+v\nnot\n%+v", replayed, entries)
		}
	})
}
