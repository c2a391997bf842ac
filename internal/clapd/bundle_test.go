package clapd

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestDigestStable pins the content address: independently constructed
// bundles with the same semantic fields share a digest, the display name
// is excluded, and every semantic field participates.
func TestDigestStable(t *testing.T) {
	b := testBundle(t)
	raw, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// A JSON round trip (the ingest path) must land on the same digest as
	// the in-memory struct (the client path).
	decoded, err := DecodeBundle(raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := decoded.Digest(), b.Digest(); got != want {
		t.Fatalf("digest changed across encode/decode: %s != %s", got, want)
	}
	// Re-digesting is stable.
	if b.Digest() != b.Digest() {
		t.Fatal("digest not deterministic")
	}
	if !validDigest(b.Digest()) {
		t.Fatalf("digest %q is not 64 lowercase hex chars", b.Digest())
	}

	named := *b
	named.Name = "some-other-display-name"
	if named.Digest() != b.Digest() {
		t.Error("display name leaked into the content digest")
	}
	for _, mut := range []struct {
		field string
		apply func(*Bundle)
	}{
		{"program", func(x *Bundle) { x.Program += "\n" }},
		{"model", func(x *Bundle) { x.Model = "TSO" }},
		{"inputs", func(x *Bundle) { x.Inputs = append([]int64{7}, x.Inputs...) }},
		{"solver", func(x *Bundle) { x.Solver = "cnf" }},
		{"seed", func(x *Bundle) { x.Seed++ }},
		{"chaos", func(x *Bundle) { x.Chaos++ }},
		{"failure_thread", func(x *Bundle) { x.FailureThread++ }},
		{"failure_site", func(x *Bundle) { x.FailureSite++ }},
		{"log", func(x *Bundle) { x.Log = append(append([]byte{}, x.Log...), 0) }},
	} {
		m := *b
		mut.apply(&m)
		if m.Digest() == b.Digest() {
			t.Errorf("mutating %s did not change the digest", mut.field)
		}
	}
}

// TestLegacySeqBundleRunsPortfolio pins what a bundle recorded with
// solver "seq" does now that the sequential search is gone: the digest
// covers the solver name, so the bundle must still decode to the same
// digest (a journaled job keeps its address across a restart), and it
// runs the product path's trail.
func TestLegacySeqBundleRunsPortfolio(t *testing.T) {
	b := testBundle(t)
	b.Solver = "seq"
	raw, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeBundle(raw, 0)
	if err != nil {
		t.Fatalf("a seq bundle no longer decodes: %v", err)
	}
	if got, want := decoded.Digest(), b.Digest(); got != want {
		t.Fatalf("digest changed across encode/decode: %s != %s", got, want)
	}
	kind, err := SolverKind(decoded.Solver)
	if err != nil || kind != core.Portfolio {
		t.Fatalf("SolverKind(%q) = %v, %v; want the portfolio", decoded.Solver, kind, err)
	}
	rec, _, err := decoded.Rehydrate()
	if err != nil {
		t.Fatal(err)
	}
	trail := func(kind core.SolverKind) string {
		rep, err := core.Reproduce(rec, core.ReproduceOptions{Solver: kind})
		if err != nil {
			t.Fatal(err)
		}
		var parts []string
		for _, a := range rep.Attempts {
			parts = append(parts, a.Solver+" "+a.Outcome)
		}
		return strings.Join(parts, ", ")
	}
	if got, want := trail(kind), trail(core.Portfolio); got != want {
		t.Fatalf("seq bundle ran %s, the portfolio %s", got, want)
	}
}

// TestDecodeBundleRejects pins the typed early rejections: oversized
// payloads, non-bundle JSON, wrong schema, and — critically — flat
// (non-framed) logs, which have no salvage story.
func TestDecodeBundleRejects(t *testing.T) {
	raw, _ := testBundleBytes(t)

	if _, err := DecodeBundle(raw, 16); err == nil {
		t.Error("oversized bundle accepted")
	} else if _, ok := err.(*TooLargeError); !ok {
		t.Errorf("oversized bundle: got %T, want *TooLargeError", err)
	}

	for name, tweak := range map[string]func(*Bundle){
		"schema":  func(b *Bundle) { b.Schema = "clap-bundle/999" },
		"program": func(b *Bundle) { b.Program = "   " },
		"model":   func(b *Bundle) { b.Model = "LSD" },
		"solver":  func(b *Bundle) { b.Solver = "quantum" },
		"nolog":   func(b *Bundle) { b.Log = nil },
	} {
		b := testBundle(t)
		tweak(b)
		enc, err := b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		// Encode force-restores the schema; corrupt it on the wire.
		if name == "schema" {
			enc = []byte(strings.Replace(string(enc), BundleSchema, "clap-bundle/999", 1))
		}
		if _, err := DecodeBundle(enc, 0); err == nil {
			t.Errorf("%s: bad bundle accepted", name)
		} else if _, ok := err.(*BadBundleError); !ok {
			t.Errorf("%s: got %T, want *BadBundleError", name, err)
		}
	}

	// A flat (legacy, non-framed) log is refused before any decoding.
	flat := testBundle(t)
	pl := &trace.PathLog{}
	pl.Append(0, trace.Event{Kind: trace.EvEnter, Arg: 0})
	flat.Log = pl.Encode()
	enc, err := flat.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBundle(enc, 0); err == nil {
		t.Error("flat log accepted")
	} else if !strings.Contains(err.Error(), "framed") {
		t.Errorf("flat log rejection does not name the framed format: %v", err)
	}

	if _, err := DecodeBundle([]byte("{not json"), 0); err == nil {
		t.Error("non-JSON accepted")
	}
}

// TestBundleTruncatedLogSalvages proves a damaged upload still decodes
// to its longest valid prefix rather than erroring — the service-side
// face of the framed format's salvage guarantee.
func TestBundleTruncatedLogSalvages(t *testing.T) {
	b := testBundle(t)
	cut := *b
	cut.Log = append([]byte{}, b.Log[:len(b.Log)-7]...)
	enc, err := cut.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBundle(enc, 0)
	if err != nil {
		t.Fatalf("truncated framed log refused at admission: %v", err)
	}
	log, rep, err := dec.DecodeLog()
	if err != nil {
		t.Fatalf("truncated log did not salvage: %v", err)
	}
	if rep.Clean() {
		t.Error("salvage report claims a clean decode of a truncated log")
	}
	if len(log.Threads) == 0 {
		t.Error("salvage yielded no threads")
	}
	// And the truncated bundle is a different object than the intact one.
	if dec.Digest() == b.Digest() {
		t.Error("truncated log collided with the intact digest")
	}
}
