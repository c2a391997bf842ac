package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/clapd"
	"repro/internal/core"
	"repro/internal/obs"
)

// chaosBundle records the racy program once and shares the encoded
// bundle across the serve tests.
var chaosBundle = sync.OnceValues(func() ([]byte, error) {
	prog, err := core.Compile(racyProg)
	if err != nil {
		return nil, err
	}
	rec, err := core.Record(prog, core.RecordOptions{SeedLimit: 2000})
	if err != nil {
		return nil, err
	}
	return clapd.FromRecording(rec, racyProg, "racy", "").Encode()
})

func chaosBundleBytes(t *testing.T) ([]byte, string) {
	t.Helper()
	raw, err := chaosBundle()
	if err != nil {
		t.Fatal(err)
	}
	b, err := clapd.DecodeBundle(raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	return raw, b.Digest()
}

// serveProc is one daemon subprocess under test control.
type serveProc struct {
	cmd  *exec.Cmd
	base string
	exit chan error
	out  *bytes.Buffer
}

// startServe launches `clap serve` on an ephemeral port and waits for
// its ready line. faults arms CLAP_FAULTS in the child.
func startServe(t *testing.T, dir, faults string) *serveProc {
	t.Helper()
	cmd := exec.Command(clapBin(t), "serve", "-dir", dir, "-addr", "127.0.0.1:0", "-retry-base", "10ms")
	cmd.Env = append(os.Environ(), "CLAP_FAULTS="+faults)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serveProc{cmd: cmd, exit: make(chan error, 1), out: &errBuf}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "listening on http://") {
				addr := line[strings.Index(line, "http://"):]
				ready <- addr[:strings.Index(addr, " ")]
			}
		}
	}()
	go func() { p.exit <- cmd.Wait() }()
	select {
	case p.base = <-ready:
	case err := <-p.exit:
		t.Fatalf("serve exited before ready: %v\n%s", err, errBuf.String())
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("serve never became ready\n%s", errBuf.String())
	}
	return p
}

// waitExit waits for the daemon subprocess and returns its exit code.
func (p *serveProc) waitExit(t *testing.T, timeout time.Duration) int {
	t.Helper()
	select {
	case <-p.exit:
		return p.cmd.ProcessState.ExitCode()
	case <-time.After(timeout):
		p.cmd.Process.Kill()
		t.Fatalf("serve did not exit\nstderr:\n%s", p.out.String())
		return -1
	}
}

func (p *serveProc) sigterm(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := p.waitExit(t, 30*time.Second); code != 0 {
		t.Fatalf("drain exited %d\nstderr:\n%s", code, p.out.String())
	}
}

func httpGetJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestServeChaosKillAnywhere is the durability acceptance test: arm a
// hard crash (os.Exit(137), a deterministic kill -9) at each stage of
// the journal/store/worker path, accept a job, let the daemon die, then
// restart it clean and require that the accepted job reaches exactly one
// terminal state — never lost, never double-completed.
func TestServeChaosKillAnywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos sweep")
	}
	raw, digest := chaosBundleBytes(t)
	// Every point fires in the worker, after ingest fsynced the job's
	// queued record.
	points := []string{
		// Crash while journaling the running transition (the queued append
		// already fsynced at ingest).
		"clapd.journal.sync=crash@1",
		// Crash on a store rename after open-compaction (1) and the
		// ingest-path bundle write (2): a worker artifact write dies.
		"clapd.fs.rename=crash@2",
		// Crash at the named worker stages.
		"clapd.worker.start=crash",
		"clapd.worker.solve=crash",
		"clapd.worker.result=crash",
		// Crash after the terminal transition was journaled: restart must
		// serve the completed job without re-running the pipeline.
		"clapd.worker.done=crash",
	}
	for _, faults := range points {
		t.Run(strings.ReplaceAll(faults, "=", "_"), func(t *testing.T) {
			dir := t.TempDir()

			// Phase 1: armed daemon. Ingest, then let the crash point kill it.
			// The worker can reach the crash before the ingest handler writes
			// its 201, so the client may see a dropped connection; the job
			// was accepted all the same. A response that does arrive must be
			// the 201.
			p1 := startServe(t, dir, faults)
			resp, err := http.Post(p1.base+"/v1/jobs", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Logf("ingest ack lost to the crash: %v", err)
			} else {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					t.Fatalf("ingest: %d %s", resp.StatusCode, body)
				}
			}
			if code := p1.waitExit(t, 60*time.Second); code != 137 {
				t.Fatalf("armed daemon exited %d, want 137 (crash)\nstderr:\n%s", code, p1.out.String())
			}

			// Phase 2: clean restart. The accepted job must recover to
			// exactly one terminal state.
			p2 := startServe(t, dir, "")
			defer p2.sigterm(t)
			var job clapd.Job
			deadline := time.Now().Add(60 * time.Second)
			for {
				httpGetJSON(t, p2.base+"/v1/jobs/"+digest, &job)
				if job.State.Terminal() {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("recovered job never finished: %+v", job)
				}
				time.Sleep(50 * time.Millisecond)
			}
			if job.State != clapd.StateDone {
				t.Fatalf("recovered job ended %s (%s), want done", job.State, job.Err)
			}
			var stats obs.Report
			httpGetJSON(t, p2.base+"/v1/stats", &stats)
			if got := stats.Counters["clapd.jobs.doublecomplete.refused"]; got != 0 {
				t.Errorf("restart attempted %d double completions", got)
			}
			if faults == "clapd.worker.done=crash" {
				// The terminal state was durable before the crash: recovery
				// must serve it from the journal, not re-run the pipeline.
				if got := stats.Counters["clapd.jobs.executed"]; got != 0 {
					t.Errorf("completed job re-executed %d times after restart", got)
				}
			}
			// The reproduction artifact is served from the store.
			var res clapd.Result
			httpGetJSON(t, p2.base+"/v1/jobs/"+digest+"/result", &res)
			if !res.Reproduced {
				t.Errorf("recovered result: %+v", res)
			}
		})
	}
}

// TestJobsGolden pins `clap jobs` output byte-for-byte on a crafted
// journal (no timestamps, digests sorted, damage reported).
func TestJobsGolden(t *testing.T) {
	dir := t.TempDir()
	dA := strings.Repeat("aa", 32)
	dB := strings.Repeat("bb", 32)
	dC := strings.Repeat("cc", 32)
	wal := fmt.Sprintf(`{"seq":1,"digest":%q,"state":"queued","attempt":0}
{"seq":2,"digest":%q,"state":"queued","attempt":0}
{"seq":3,"digest":%q,"state":"done","attempt":1}
{"seq":4,"digest":%q,"state":"queued","attempt":0}
{"seq":5,"digest":%q,"state":"poisoned","attempt":3,"err":"injected solver failure"}
torn-garbage-tail`, dC, dB, dB, dA, dC)
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), []byte(wal), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(clapBin(t), "jobs", "-dir", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("clap jobs: %v\n%s", err, out)
	}
	want := []string{
		"STATE      ATTEMPT  DIGEST        ERROR",
		"queued     0        aaaaaaaaaaaa  -",
		"done       1        bbbbbbbbbbbb  -",
		"poisoned   3        cccccccccccc  injected solver failure",
		"3 jobs: 1 queued, 0 running, 0 retrying, 1 done, 1 poisoned",
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if len(lines) != len(want)+1 {
		t.Fatalf("clap jobs printed %d lines, want %d:\n%s", len(lines), len(want)+1, out)
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("line %d:\n got %q\nwant %q", i, lines[i], w)
		}
	}
	// The damage line names the dropped byte count; the decoder's error
	// text (offset, JSON detail) is not part of the contract.
	if !strings.HasPrefix(lines[len(want)], "journal tail damaged: 17B dropped") {
		t.Errorf("damage line: %q", lines[len(want)])
	}
}

// TestBundleCommand exercises the client half: `clap bundle` emits a
// decodable clap-bundle/1, and -truncate-log ships a damaged log that
// still salvages server-side.
func TestBundleCommand(t *testing.T) {
	dir := t.TempDir()
	intact := filepath.Join(dir, "intact.json")
	out, err := exec.Command(clapBin(t), "bundle", "sim_race", "-o", intact).CombinedOutput()
	if err != nil {
		t.Fatalf("clap bundle: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(intact)
	if err != nil {
		t.Fatal(err)
	}
	b, err := clapd.DecodeBundle(raw, 0)
	if err != nil {
		t.Fatalf("emitted bundle does not decode: %v", err)
	}
	if b.Name != "sim_race" || b.Solver != "" {
		t.Errorf("bundle fields: name=%q solver=%q", b.Name, b.Solver)
	}
	if _, rep, err := b.DecodeLog(); err != nil || !rep.Clean() {
		t.Fatalf("intact bundle log: %v, %s", err, rep)
	}

	cut := filepath.Join(dir, "cut.json")
	out, err = exec.Command(clapBin(t), "bundle", "sim_race", "-o", cut, "-truncate-log", "7").CombinedOutput()
	if err != nil {
		t.Fatalf("clap bundle -truncate-log: %v\n%s", err, out)
	}
	craw, err := os.ReadFile(cut)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := clapd.DecodeBundle(craw, 0)
	if err != nil {
		t.Fatalf("truncated bundle refused at decode: %v", err)
	}
	if cb.Digest() == b.Digest() {
		t.Error("truncation did not change the digest")
	}
	if _, rep, err := cb.DecodeLog(); err != nil {
		t.Fatalf("truncated log did not salvage: %v", err)
	} else if rep.Clean() {
		t.Error("truncated log claims a clean decode")
	}
}
