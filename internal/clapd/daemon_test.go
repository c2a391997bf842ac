package clapd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// fastConfig is a worker-enabled daemon tuned for tests.
func fastConfig(dir string) Config {
	return Config{
		Dir:         dir,
		Workers:     1,
		MaxAttempts: 3,
		RetryBase:   time.Millisecond,
		JobTimeout:  time.Minute,
	}
}

// TestDaemonEndToEnd is the service's happy path over real HTTP: ingest
// a recorded bundle (201), watch it reach done, fetch every artifact,
// then re-upload the same bytes and get the cached reproduction (200 +
// X-Clap-Dedupe) with zero additional pipeline executions — asserted via
// the daemon's own counters, the acceptance criterion of ROADMAP item 1.
func TestDaemonEndToEnd(t *testing.T) {
	d, err := Open(fastConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, d)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	raw, digest := testBundleBytes(t)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	var accepted Job
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Digest != digest || accepted.State != StateQueued {
		t.Fatalf("accepted job: %+v", accepted)
	}

	job := waitTerminal(t, d, digest, 60*time.Second)
	if job.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", job.State, job.Err)
	}

	// The result artifact records a verified reproduction.
	var res Result
	getJSON(t, srv.URL+"/v1/jobs/"+digest+"/result", &res)
	if res.Schema != ResultSchema || !res.Reproduced {
		t.Fatalf("result artifact: %+v", res)
	}
	if res.ScheduleLen == 0 {
		t.Error("result has no schedule")
	}
	// The per-job metrics artifact is a decodable clap-metrics/1 report
	// carrying the job's span tree.
	mraw := getRaw(t, srv.URL+"/v1/jobs/"+digest+"/metrics", http.StatusOK)
	mrep, err := obs.DecodeReport(mraw)
	if err != nil {
		t.Fatalf("metrics artifact: %v", err)
	}
	if mrep.Span("job.rehydrate") == nil {
		t.Error("job metrics missing the rehydrate span")
	}
	// Flight-recorder artifacts rode along.
	getRaw(t, srv.URL+"/v1/jobs/"+digest+"/timeline", http.StatusOK)

	// Duplicate upload: same bytes, same digest, served from the store.
	resp2, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate ingest: %d, want 200", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Clap-Dedupe"); got != "cached" {
		t.Fatalf("X-Clap-Dedupe = %q, want cached", got)
	}

	// The counters prove the dedupe cost no pipeline work: one execution
	// for two uploads.
	var stats obs.Report
	getJSON(t, srv.URL+"/v1/stats", &stats)
	if got := stats.Counters["clapd.jobs.executed"]; got != 1 {
		t.Errorf("clapd.jobs.executed = %d, want 1", got)
	}
	if got := stats.Counters["clapd.ingest.dedup.cached"]; got != 1 {
		t.Errorf("clapd.ingest.dedup.cached = %d, want 1", got)
	}
	if got := stats.Counters["clapd.ingest.accepted"]; got != 1 {
		t.Errorf("clapd.ingest.accepted = %d, want 1", got)
	}

	// Job listing and lookups.
	var list struct{ Jobs []Job }
	getJSON(t, srv.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].State != StateDone {
		t.Errorf("job list: %+v", list.Jobs)
	}
	getRaw(t, srv.URL+"/v1/jobs/"+digest+"/nosuch", http.StatusNotFound)
	getRaw(t, srv.URL+"/v1/jobs/"+testDigest(0x99), http.StatusNotFound)
	getRaw(t, srv.URL+"/v1/jobs/not-a-digest", http.StatusBadRequest)
	getRaw(t, srv.URL+"/healthz", http.StatusOK)
}

func getRaw(t *testing.T, url string, want int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("GET %s: %d (want %d): %s", url, resp.StatusCode, want, body)
	}
	return body
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal(getRaw(t, url, http.StatusOK), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestIngestRejectsHTTP pins the 4xx surface: oversized bodies are cut
// off at the cap (413), non-framed or malformed bundles bounce with a
// typed 400, and none of them journal a job.
func TestIngestRejectsHTTP(t *testing.T) {
	cfg := fastConfig(t.TempDir())
	cfg.Workers = -1
	cfg.MaxUploadBytes = 4 << 10
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, d)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := post(bytes.Repeat([]byte("x"), 64<<10)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized: %d, want 413", resp.StatusCode)
	}
	if resp := post([]byte(`{"schema":"clap-bundle/1"}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty bundle: %d, want 400", resp.StatusCode)
	}
	if resp := post([]byte("not json at all")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage: %d, want 400", resp.StatusCode)
	}
	if jobs := d.Jobs(); len(jobs) != 0 {
		t.Errorf("rejected uploads journaled jobs: %+v", jobs)
	}
}

// TestBackpressure fills the admission budget and checks saturation
// semantics: 429 + Retry-After for new digests, 202 shed for duplicates
// of in-flight work (dedupe costs no slot).
func TestBackpressure(t *testing.T) {
	cfg := fastConfig(t.TempDir())
	cfg.Workers = -1 // nothing drains the queue
	cfg.QueueDepth = 2
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, d)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Distinct digests: the seed pin participates in the content address.
	encode := func(seed int64) []byte {
		b := testBundle(t)
		b.Seed = seed
		raw, err := b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	first := encode(1)
	for i, raw := range [][]byte{first, encode(2)} {
		res, err := d.Ingest(raw)
		if err != nil || res.Status != IngestAccepted {
			t.Fatalf("ingest %d refused: %v %v", i, res, err)
		}
	}
	if _, err := d.Ingest(encode(3)); err != ErrSaturated {
		t.Fatalf("third ingest: %v, want ErrSaturated", err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(encode(4)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// A duplicate of queued work is shed to the existing job, not refused.
	resp2, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted || resp2.Header.Get("X-Clap-Dedupe") != "inflight" {
		t.Fatalf("duplicate under saturation: %d %q, want 202 inflight", resp2.StatusCode, resp2.Header.Get("X-Clap-Dedupe"))
	}
}

// TestDrainPreservesQueuedJobs is the graceful-shutdown contract: drain
// refuses new work, leaves queued jobs journaled, and the next start
// recovers every one of them.
func TestDrainPreservesQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	cfg := fastConfig(dir)
	cfg.Workers = -1
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, digest := testBundleBytes(t)
	if _, err := d.Ingest(raw); err != nil {
		t.Fatal(err)
	}
	shutdown(t, d)
	// A duplicate of journaled work is still shed to the existing job…
	if res, err := d.Ingest(raw); err != nil || res.Status != IngestInFlight {
		t.Fatalf("duplicate ingest after shutdown: %+v, %v, want inflight", res, err)
	}
	// …but new work is refused while draining.
	fresh := testBundle(t)
	fresh.Seed = 424242
	fraw, err := fresh.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Ingest(fraw); err != ErrDraining {
		t.Fatalf("fresh ingest after shutdown: %v, want ErrDraining", err)
	}

	d2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, d2)
	job, ok := d2.JobView(digest)
	if !ok {
		t.Fatal("queued job lost across restart")
	}
	if job.State != StateQueued || !job.Recovered {
		t.Fatalf("recovered job: %+v, want recovered queued", job)
	}
}

// TestRecoveryPolicy pins what restart does with each journaled state:
// terminal entries stay terminal, queued/retrying re-enter the queue
// as-is, and a job that was mid-run is charged the interrupted attempt —
// re-queued while budget remains, poisoned once it is spent.
func TestRecoveryPolicy(t *testing.T) {
	dir := t.TempDir()
	done, queued, running1, running3 := testDigest(0x61), testDigest(0x62), testDigest(0x63), testDigest(0x64)
	writeWAL(t, dir,
		line(1, done, StateQueued, 0),
		line(2, done, StateDone, 1),
		line(3, queued, StateQueued, 0),
		line(4, running1, StateRunning, 1),
		line(5, running3, StateRunning, 3),
	)
	cfg := fastConfig(dir)
	cfg.Workers = -1 // freeze the queue so states are inspectable
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, d)

	want := map[string]State{
		done:     StateDone,
		queued:   StateQueued,
		running1: StateRetrying,
		running3: StatePoisoned,
	}
	for digest, state := range want {
		job, ok := d.JobView(digest)
		if !ok {
			t.Errorf("job %.8s lost in recovery", digest)
			continue
		}
		if job.State != state {
			t.Errorf("job %.8s recovered as %s, want %s", digest, job.State, state)
		}
	}
	reg := d.Trace().Reg()
	if got := reg.Get("clapd.recovered.requeued"); got != 2 {
		t.Errorf("clapd.recovered.requeued = %d, want 2 (queued + running1)", got)
	}
	if got := reg.Get("clapd.recovered.poisoned"); got != 1 {
		t.Errorf("clapd.recovered.poisoned = %d, want 1", got)
	}
	// The poisoning was journaled: a second restart must not double-count.
	shutdown(t, d)
	d2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, d2)
	if got := d2.Trace().Reg().Get("clapd.recovered.poisoned"); got != 0 {
		t.Errorf("second restart re-poisoned %d jobs", got)
	}
}

// TestWorkerPanicWritesMetrics is the worker-cleanup regression test: a
// job that panics mid-pipeline must still persist its clap-metrics/1
// artifact, reach exactly one terminal state, and leave a result.json
// explaining the failure.
func TestWorkerPanicWritesMetrics(t *testing.T) {
	defer faultinject.Reset()
	cfg := fastConfig(t.TempDir())
	cfg.MaxAttempts = 1
	faultinject.Enable("clapd.worker.solve", faultinject.Failure{Panic: "injected worker panic"})

	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, d)
	raw, digest := testBundleBytes(t)
	if _, err := d.Ingest(raw); err != nil {
		t.Fatal(err)
	}
	job := waitTerminal(t, d, digest, 30*time.Second)
	if job.State != StatePoisoned {
		t.Fatalf("panicking job ended %s, want poisoned", job.State)
	}
	if !strings.Contains(job.Err, "panic") {
		t.Errorf("job error does not mention the panic: %q", job.Err)
	}

	// The deferred cleanup persisted the metrics artifact anyway.
	mraw, err := d.Store().Read(digest, ArtifactMetrics)
	if err != nil {
		t.Fatalf("metrics artifact missing after panic: %v", err)
	}
	if _, err := obs.DecodeReport(mraw); err != nil {
		t.Fatalf("metrics artifact corrupt after panic: %v", err)
	}
	// And the failure result explains the poisoning.
	rraw, err := d.Store().Read(digest, ArtifactResult)
	if err != nil {
		t.Fatalf("result artifact missing for poisoned job: %v", err)
	}
	var res Result
	if err := json.Unmarshal(rraw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Err == "" || res.Reproduced {
		t.Errorf("failure result: %+v", res)
	}
	if got := d.Trace().Reg().Get("clapd.jobs.panics"); got != 1 {
		t.Errorf("clapd.jobs.panics = %d, want 1", got)
	}
}

// TestTransientFailureRetries injects one transient fault and watches
// the retry loop recover: attempt 1 fails, backoff fires, attempt 2
// completes the reproduction.
func TestTransientFailureRetries(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Enable("clapd.worker.start", faultinject.Failure{Times: 1})

	d, err := Open(fastConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, d)
	raw, digest := testBundleBytes(t)
	if _, err := d.Ingest(raw); err != nil {
		t.Fatal(err)
	}
	job := waitTerminal(t, d, digest, 60*time.Second)
	if job.State != StateDone {
		t.Fatalf("job ended %s (%s), want done after retry", job.State, job.Err)
	}
	if job.Attempt != 2 {
		t.Errorf("job.Attempt = %d, want 2", job.Attempt)
	}
	reg := d.Trace().Reg()
	if got := reg.Get("clapd.jobs.retried"); got != 1 {
		t.Errorf("clapd.jobs.retried = %d, want 1", got)
	}
	if got := reg.Get("clapd.jobs.doublecomplete.refused"); got != 0 {
		t.Errorf("double completion refused %d times, want 0", got)
	}
}

// TestPermanentFailurePoisonsImmediately: a bundle whose program cannot
// compile will fail identically forever, so the first attempt poisons it
// without burning the retry budget.
func TestPermanentFailurePoisonsImmediately(t *testing.T) {
	d, err := Open(fastConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, d)
	b := testBundle(t)
	b.Program = "func main( { this does not parse }"
	raw, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Ingest(raw); err != nil {
		t.Fatal(err)
	}
	job := waitTerminal(t, d, b.Digest(), 30*time.Second)
	if job.State != StatePoisoned || job.Attempt != 1 {
		t.Fatalf("job ended %s attempt %d, want poisoned on attempt 1", job.State, job.Attempt)
	}
	if got := d.Trace().Reg().Get("clapd.jobs.retried"); got != 0 {
		t.Errorf("permanent failure was retried %d times", got)
	}
	// Re-uploading the same broken bundle serves the recorded poisoning.
	res, err := d.Ingest(raw)
	if err != nil || res.Status != IngestCached {
		t.Fatalf("poisoned duplicate: %+v, %v, want cached", res, err)
	}
}

// TestUnsatProofPoisonsImmediately: dekker's bug needs TSO store
// buffering, so a bundle of its recording whose model field says SC
// encodes a system with no schedule. CNF proves that, and the same bytes
// would fail the same way on every retry.
func TestUnsatProofPoisonsImmediately(t *testing.T) {
	bm, _ := bench.ByName("dekker")
	p, err := bench.Prepare(bm)
	if err != nil {
		t.Fatal(err)
	}
	b := FromRecording(p.Recording, bm.Source, bm.Name, "")
	b.Model = "SC"
	raw, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(fastConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, d)
	if _, err := d.Ingest(raw); err != nil {
		t.Fatal(err)
	}
	job := waitTerminal(t, d, b.Digest(), 60*time.Second)
	if job.State != StatePoisoned || job.Attempt != 1 {
		t.Fatalf("job ended %s attempt %d (%s), want poisoned on attempt 1", job.State, job.Attempt, job.Err)
	}
	if got := d.Trace().Reg().Get("clapd.jobs.retried"); got != 0 {
		t.Errorf("unsat proof was retried %d times", got)
	}
}

// TestIngestFaultBeforeAck: an injected journal or store failure during
// admission must surface as an error with nothing accepted — the client
// retries, and no half-admitted job exists to leak.
func TestIngestFaultBeforeAck(t *testing.T) {
	defer faultinject.Reset()
	cfg := fastConfig(t.TempDir())
	cfg.Workers = -1
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, d)
	raw, digest := testBundleBytes(t)
	for _, point := range []string{"clapd.fs.sync", "clapd.journal.append", "clapd.journal.sync"} {
		faultinject.Reset()
		faultinject.Enable(point, faultinject.Failure{Times: 1})
		if _, err := d.Ingest(raw); err == nil {
			t.Fatalf("%s: faulted ingest succeeded", point)
		}
		if _, ok := d.JobView(digest); ok {
			t.Fatalf("%s: failed ingest left a job behind", point)
		}
	}
	faultinject.Reset()
	if res, err := d.Ingest(raw); err != nil || res.Status != IngestAccepted {
		t.Fatalf("clean ingest after faults: %+v, %v", res, err)
	}
}

// TestBackoff pins the retry schedule: deterministic for a (digest,
// attempt) pair, exponential up to the cap, jitter bounded by 50%.
func TestBackoff(t *testing.T) {
	base := 100 * time.Millisecond
	digest := testDigest(0x77)
	if Backoff(base, digest, 1) != Backoff(base, digest, 1) {
		t.Error("backoff not deterministic")
	}
	for attempt := 1; attempt <= 10; attempt++ {
		d := Backoff(base, digest, attempt)
		shift := attempt - 1
		if shift > 6 {
			shift = 6
		}
		lo := base << shift
		hi := lo + lo/2
		if d < lo || d > hi {
			t.Errorf("attempt %d: %v outside [%v, %v]", attempt, d, lo, hi)
		}
	}
	if Backoff(base, digest, 2) == Backoff(base, testDigest(0x78), 2) {
		t.Error("jitter ignores the digest")
	}
}
