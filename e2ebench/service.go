package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/clapd"
	"repro/internal/core"
	"repro/internal/races"
)

const (
	// drainTimeout bounds the wait for one job of the daemon probe.
	drainTimeout = 60 * time.Second
	// artifactProbes is how many bundles a traced run re-runs outside the
	// daemon to time the per-job artifacts.
	artifactProbes = 12
	// daemonProbes is how many bundles a traced repro-datarace run
	// uploads, one at a time, to an in-process daemon after its window.
	daemonProbes = 24
)

// jobEvents is what the daemon's event log said about one job.
type jobEvents struct {
	runningAt, terminalAt time.Time
	queued, ran           time.Duration // dur_ns of the running and terminal transitions
	state                 string
}

// eventWatcher is the daemon's Config.LogWriter: it parses each JSON line
// as it is written and stamps job transitions with their arrival time.
type eventWatcher struct {
	mu   sync.Mutex
	buf  []byte
	jobs map[string]*jobEvents
	bad  int
}

func (w *eventWatcher) Write(p []byte) (int, error) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			break
		}
		var ev clapd.Event
		if err := json.Unmarshal(w.buf[:i], &ev); err != nil {
			w.bad++
		} else if ev.Kind == "job.transition" {
			w.note(ev, now)
		}
		w.buf = w.buf[i+1:]
	}
	return len(p), nil
}

func (w *eventWatcher) note(ev clapd.Event, at time.Time) {
	j := w.jobs[ev.Digest]
	if j == nil {
		j = &jobEvents{}
		w.jobs[ev.Digest] = j
	}
	switch clapd.State(ev.State) {
	case clapd.StateRunning:
		j.runningAt, j.queued = at, time.Duration(ev.DurNS)
	case clapd.StateDone, clapd.StatePoisoned:
		j.terminalAt, j.ran = at, time.Duration(ev.DurNS)
	}
	j.state = ev.State
}

// job returns a copy of a job's events.
func (w *eventWatcher) job(digest string) (jobEvents, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	j, ok := w.jobs[digest]
	if !ok {
		return jobEvents{}, false
	}
	return *j, true
}

// waitTerminal waits until the digest's job is done or poisoned, or the
// deadline passes.
func (w *eventWatcher) waitTerminal(digest string, deadline time.Time) {
	for time.Now().Before(deadline) {
		if j, ok := w.job(digest); ok && !j.terminalAt.IsZero() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// loopbackDaemon is clapd with its defaults on a fresh state directory,
// served by Daemon.Handler on a loopback listener.
type loopbackDaemon struct {
	dir    string
	d      *clapd.Daemon
	ev     *eventWatcher
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
}

// start opens a daemon on a fresh state directory under work and serves
// it.
func (r *loopbackDaemon) start(work string) error {
	dir, err := os.MkdirTemp(work, "service-")
	if err != nil {
		return err
	}
	r.dir = dir
	r.ev = &eventWatcher{jobs: map[string]*jobEvents{}}
	r.d, err = clapd.Open(clapd.Config{Dir: dir, LogWriter: r.ev})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.url = "http://" + ln.Addr().String()
	r.srv = &http.Server{Handler: r.d.Handler()}
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(ln) }()
	// One keep-alive connection carries every request.
	r.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return nil
}

// close stops the listener and the daemon, waits for both, and removes
// the state directory.
func (r *loopbackDaemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if r.srv != nil {
		if err := r.srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: http shutdown:", err)
		}
		if err := <-r.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "e2ebench: http serve:", err)
		}
		r.srv = nil
	}
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
	if r.d != nil {
		if err := r.d.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: daemon shutdown:", err)
		}
		r.d = nil
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
		r.dir = ""
	}
}

// post uploads one bundle and returns the status and dedupe header.
func (r *loopbackDaemon) post(raw []byte) (int, string, error) {
	resp, err := r.client.Post(r.url+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, resp.Header.Get("X-Clap-Dedupe"), nil
}

// reproduced fetches a job's result.json and says whether it reports a
// verified replay.
func (r *loopbackDaemon) reproduced(digest string) (bool, error) {
	resp, err := r.client.Get(r.url + "/v1/jobs/" + digest + "/result")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("GET result: %s", resp.Status)
	}
	var res clapd.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return false, err
	}
	return res.Reproduced, nil
}

// traceUpload records one upload's spans under an "upload" root from the
// request to end: the POST round trip (sent to answered), and for a new
// job the queued and running intervals the event log reported.
func traceUpload(tr *tracer, op int, x input, sent, answered, end time.Time, j *jobEvents) {
	off := func(t time.Time) int64 { return int64(t.Sub(tr.t0)) }
	r := tr.add(op, -1, "upload", off(sent), off(end))
	tr.label(r, x.Program, x.Digest)
	tr.add(op, r, "clapd.ingest", off(sent), off(answered))
	if j == nil {
		return
	}
	tr.add(op, r, "clapd.queue", off(j.runningAt)-int64(j.queued), off(j.runningAt))
	tr.add(op, r, "clapd.run", off(j.terminalAt)-int64(j.ran), off(j.terminalAt))
}

// probeArtifacts re-runs bundles outside the daemon with the replay
// capture a worker uses, timing each layer, then the per-job artifacts a
// worker builds after solving. It returns the failed reproductions.
func probeArtifacts(tr *tracer, op0 int, bundles []input, kind core.SolverKind) []string {
	var problems []string
	for k, x := range bundles {
		op := op0 + k
		rep, res := reproduceTraced(tr, op, "probe", x, kind, true)
		if res.err != nil {
			problems = append(problems, fmt.Sprintf("artifacts probe %s %.12s: %v", x.Program, x.Digest, res.err))
			continue
		}
		// A worker builds these best-effort and keeps the job on error, so
		// the probe times them the same way.
		s := tr.start(op, -1, "clapd.artifacts")
		_, _ = rep.BuildTimeline(x.Digest[:12])
		_, _ = rep.ScheduleDiff()
		_, _ = rep.Recording.DetectRaces(races.Options{}, nil)
		tr.end(s)
	}
	return problems
}

// probeDaemon times the service layers from outside with one client in a
// closed loop: it uploads each bundle to a fresh in-process daemon, waits
// for its job and checks its result.json says reproduced, then uploads a
// quarter of them again, which the daemon must answer from its cache. Op
// ids start at op0; it returns the next free one and the failed checks.
func probeDaemon(tr *tracer, work string, op0 int, bundles []input, kind core.SolverKind) (int, []string) {
	r := &loopbackDaemon{}
	if err := r.start(work); err != nil {
		r.close()
		return op0, []string{fmt.Sprintf("daemon probe: %v", err)}
	}
	defer r.close()
	var problems []string
	resend := len(bundles) / 4
	deduped := 0
	for k, x := range append(bundles[:len(bundles):len(bundles)], bundles[:resend]...) {
		re := k >= len(bundles)
		sent := time.Now()
		status, dedupe, err := r.post(x.Raw)
		answered := time.Now()
		if err != nil || status/100 != 2 {
			problems = append(problems, fmt.Sprintf("daemon probe upload %s %.12s: status %d, %v", x.Program, x.Digest, status, err))
			continue
		}
		if re {
			if dedupe != "" {
				deduped++
			}
			traceUpload(tr, op0+k, x, sent, answered, answered, nil)
			continue
		}
		r.ev.waitTerminal(x.Digest, time.Now().Add(drainTimeout))
		j, _ := r.ev.job(x.Digest)
		if clapd.State(j.state) != clapd.StateDone {
			problems = append(problems, fmt.Sprintf("daemon probe job %s %.12s: %q", x.Program, x.Digest, j.state))
			continue
		}
		traceUpload(tr, op0+k, x, sent, answered, j.terminalAt, &j)
		if ok, err := r.reproduced(x.Digest); !ok {
			problems = append(problems, fmt.Sprintf("daemon probe result %s %.12s: not reproduced (%v)", x.Program, x.Digest, err))
		}
	}
	r.ev.mu.Lock()
	if r.ev.bad > 0 {
		problems = append(problems, fmt.Sprintf("daemon probe: %d event log lines did not parse", r.ev.bad))
	}
	r.ev.mu.Unlock()
	if resend > 0 {
		tr.count("clapd.dedupe_ratio", float64(deduped)/float64(resend))
	}
	probed := bundles[:min(artifactProbes, len(bundles))]
	problems = append(problems, probeArtifacts(tr, op0+len(bundles)+resend, probed, kind)...)
	return op0 + len(bundles) + resend + len(probed), problems
}
