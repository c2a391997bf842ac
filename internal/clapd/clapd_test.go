package clapd

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// racySrc is the canonical lost-update benchmark used across the clapd
// tests: it records quickly and its failure reproduces deterministically
// through the offline pipeline.
const racySrc = `
int x;
int y;
func racer() {
	int r = x;
	x = r + 1;
	y = y + 1;
}
func main() {
	int h = spawn racer();
	int r = x;
	x = r + 1;
	join(h);
	int v = x;
	assert(v == 2, "lost update");
}
`

// recordOnce records racySrc a single time per test binary; recording
// hunts seeds and is the slowest step, so every test shares the result.
var recordOnce = sync.OnceValues(func() (*Bundle, error) {
	prog, err := core.Compile(racySrc)
	if err != nil {
		return nil, err
	}
	rec, err := core.Record(prog, core.RecordOptions{SeedLimit: 2000})
	if err != nil {
		return nil, err
	}
	return FromRecording(rec, racySrc, "racy", ""), nil
})

// testBundle returns a fresh shallow copy of the shared recorded bundle.
// Tests may tweak scalar fields (Seed, Name…) but must not mutate Log in
// place.
func testBundle(t testing.TB) *Bundle {
	t.Helper()
	b, err := recordOnce()
	if err != nil {
		t.Fatalf("recording test bundle: %v", err)
	}
	cp := *b
	return &cp
}

// testBundleBytes returns the shared bundle's wire bytes and digest.
func testBundleBytes(t testing.TB) ([]byte, string) {
	t.Helper()
	b := testBundle(t)
	raw, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return raw, b.Digest()
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, d *Daemon, digest string, timeout time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if j, ok := d.JobView(digest); ok && j.State.Terminal() {
			return j
		}
		time.Sleep(10 * time.Millisecond)
	}
	j, _ := d.JobView(digest)
	t.Fatalf("job %.12s never reached a terminal state (last: %+v)", digest, j)
	return Job{}
}

// shutdown drains a test daemon with a bounded patience.
func shutdown(t *testing.T, d *Daemon) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
