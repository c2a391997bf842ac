package ir_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/minic"
)

// FuzzCompileSource drives the mini-language front end, parser and
// lowering, over arbitrary source. It lives in an external test package
// because the seed corpus comes from bench, which imports ir. No input
// may panic, a rejection must be a positioned *minic.Error, and an
// accepted program must compile to the same Dump twice — ContentKey
// hashes that dump.
func FuzzCompileSource(f *testing.F) {
	for _, b := range bench.All() {
		f.Add(b.Source)
	}
	for _, dir := range []string{"vet", "races"} {
		paths, err := filepath.Glob(filepath.Join("..", "..", "examples", dir, "*.mc"))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no examples under examples/%s (err=%v)", dir, err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ir.CompileSource(src)
		if err != nil {
			var me *minic.Error
			if !errors.As(err, &me) {
				t.Fatalf("rejection is not a *minic.Error: %T %v", err, err)
			}
			return
		}
		again, err := ir.CompileSource(src)
		if err != nil {
			t.Fatalf("second compile of an accepted source: %v", err)
		}
		if prog.Dump() != again.Dump() {
			t.Fatal("two compiles of one source dump differently")
		}
	})
}
