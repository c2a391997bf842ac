// The service-side subcommands:
//
//	clap serve -dir D [-addr A]        run the reproduction daemon (clapd)
//	clap jobs -dir D                   list the job journal's current states
//	clap bundle <prog.mc|bench> [-o F] record locally and emit an uploadable
//	                                   clap-bundle/1 for POST /v1/jobs
//
// serve drains gracefully on SIGTERM/SIGINT: running jobs finish, queued
// jobs stay journaled for the next start, then the process exits. The
// CLAP_FAULTS environment variable arms fault-injection points
// ("point=fail|panic|crash[@after[:times]],...") before the daemon opens,
// which is how the chaos tests kill -9 a live daemon at exact program
// points and verify the restart recovers every accepted job.
package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/clapd"
	"repro/internal/core"
	"repro/internal/faultinject"
)

// serveFlags are the daemon-specific knobs, parsed from the arguments
// parseFlags did not claim.
type serveFlags struct {
	dir       string
	addr      string
	workers   int
	queue     int
	attempts  int
	maxUpload int64
	retryBase time.Duration
	drainWait time.Duration
	rest      []string
}

func parseServeFlags(args []string) (serveFlags, error) {
	sf := serveFlags{addr: "127.0.0.1:0", drainWait: 30 * time.Second}
	i := 0
	need := func(name string) (string, error) {
		i++
		if i >= len(args) {
			return "", fmt.Errorf("flag %s needs a value", name)
		}
		return args[i], nil
	}
	for ; i < len(args); i++ {
		var err error
		switch a := args[i]; a {
		case "-dir":
			sf.dir, err = need(a)
		case "-addr":
			sf.addr, err = need(a)
		case "-workers":
			var v string
			if v, err = need(a); err == nil {
				sf.workers, err = strconv.Atoi(v)
			}
		case "-queue":
			var v string
			if v, err = need(a); err == nil {
				sf.queue, err = strconv.Atoi(v)
			}
		case "-attempts":
			var v string
			if v, err = need(a); err == nil {
				sf.attempts, err = strconv.Atoi(v)
			}
		case "-max-upload":
			var v string
			if v, err = need(a); err == nil {
				sf.maxUpload, err = strconv.ParseInt(v, 10, 64)
			}
		case "-retry-base":
			var v string
			if v, err = need(a); err == nil {
				sf.retryBase, err = time.ParseDuration(v)
			}
		case "-drain-timeout":
			var v string
			if v, err = need(a); err == nil {
				sf.drainWait, err = time.ParseDuration(v)
			}
		default:
			sf.rest = append(sf.rest, a)
		}
		if err != nil {
			return sf, err
		}
	}
	return sf, nil
}

// armFaultsFromEnv arms injection points named in CLAP_FAULTS. It runs
// before the daemon opens so even the open/recovery path can be crashed.
func armFaultsFromEnv() error {
	spec := os.Getenv("CLAP_FAULTS")
	if spec == "" {
		return nil
	}
	if err := faultinject.ArmEnv(spec); err != nil {
		return usagef("CLAP_FAULTS: %v", err)
	}
	fmt.Fprintf(os.Stderr, "clap: fault injection armed: %s\n", spec)
	return nil
}

// cmdServe runs the reproduction daemon until SIGTERM/SIGINT, then
// drains: stop admitting, finish running jobs, keep queued jobs
// journaled for the next start.
func cmdServe(rest []string, f flags) error {
	sf, err := parseServeFlags(rest)
	if err != nil {
		return usagef("%v", err)
	}
	if sf.dir == "" || len(sf.rest) != 0 {
		return usagef("usage: clap serve -dir DIR [-addr HOST:PORT] [-workers N] [-queue N] [-attempts N] [-max-upload BYTES] [-retry-base D] [-drain-timeout D] [-timeout D]")
	}
	if err := armFaultsFromEnv(); err != nil {
		return err
	}
	d, err := clapd.Open(clapd.Config{
		Dir:            sf.dir,
		Workers:        sf.workers,
		QueueDepth:     sf.queue,
		MaxAttempts:    sf.attempts,
		MaxUploadBytes: sf.maxUpload,
		JobTimeout:     f.timeout,
		RetryBase:      sf.retryBase,
		Obs:            f.tr,
		LogWriter:      os.Stderr,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", sf.addr)
	if err != nil {
		dctx, cancel := context.WithTimeout(context.Background(), sf.drainWait)
		defer cancel()
		d.Shutdown(dctx)
		return err
	}
	// The ready line carries the bound address (ports may be ephemeral)
	// and is what scripts wait for before ingesting or signalling, so the
	// signal handler is installed before it is printed.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	fmt.Printf("clapd listening on http://%s (state in %s)\n", ln.Addr(), sf.dir)

	srv := &http.Server{Handler: d.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "clap: signal received, draining")
	case err := <-serveErr:
		dctx, cancel := context.WithTimeout(context.Background(), sf.drainWait)
		defer cancel()
		d.Shutdown(dctx)
		return err
	}

	dctx, cancel := context.WithTimeout(context.Background(), sf.drainWait)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "clap: http shutdown:", err)
	}
	if err := d.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("clapd drained cleanly")
	return nil
}

// cmdJobs prints the job journal's current states — one line per job,
// latest state wins, ordered by digest so the output is deterministic
// for golden tests (timestamps never appear).
func cmdJobs(rest []string, f flags) error {
	sf, err := parseServeFlags(rest)
	if err != nil {
		return usagef("%v", err)
	}
	if sf.dir == "" || len(sf.rest) != 0 {
		return usagef("usage: clap jobs -dir DIR [-v]")
	}
	entries, rec, err := clapd.ReadJournal(sf.dir)
	if err != nil {
		return err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Digest < entries[j].Digest })
	counts := map[clapd.State]int{}
	fmt.Printf("%-9s  %-7s  %-12s  %s\n", "STATE", "ATTEMPT", "DIGEST", "ERROR")
	for _, e := range entries {
		counts[e.State]++
		errMsg := e.Err
		if errMsg == "" {
			errMsg = "-"
		}
		digest := e.Digest[:12]
		if f.verbose {
			digest = e.Digest
		}
		fmt.Printf("%-9s  %-7d  %-12s  %s\n", e.State, e.Attempt, digest, errMsg)
	}
	fmt.Printf("%d jobs: %d queued, %d running, %d retrying, %d done, %d poisoned\n",
		len(entries), counts[clapd.StateQueued], counts[clapd.StateRunning],
		counts[clapd.StateRetrying], counts[clapd.StateDone], counts[clapd.StatePoisoned])
	if rec.DroppedBytes > 0 {
		fmt.Printf("journal tail damaged: %dB dropped (%s)\n", rec.DroppedBytes, rec.DroppedReason)
	}
	return nil
}

// cmdBundle records a failure locally and emits the uploadable bundle —
// the client half of the service. -truncate-log N ships a deliberately
// damaged framed log (the last N bytes cut), exercising the server's
// salvage path; the smoke test uses it to play the crashing client.
func cmdBundle(rest []string, f flags) error {
	truncate := 0
	var args []string
	for i := 0; i < len(rest); i++ {
		if rest[i] == "-truncate-log" {
			i++
			if i >= len(rest) {
				return usagef("flag -truncate-log needs a value")
			}
			n, err := strconv.Atoi(rest[i])
			if err != nil || n < 0 {
				return usagef("bad -truncate-log value %q", rest[i])
			}
			truncate = n
			continue
		}
		args = append(args, rest[i])
	}
	src, name, f, err := resolveTarget(args, f, "usage: clap bundle <prog.mc|benchmark> [-o FILE] [-truncate-log N] [flags]")
	if err != nil {
		return err
	}
	prog, err := core.Compile(src)
	if err != nil {
		return err
	}
	rec, err := core.Record(prog, core.RecordOptions{
		Model: f.model, Inputs: f.inputs, Seed: f.seed, SeedLimit: f.seeds,
		Deadline: f.timeout, Obs: f.tr,
	})
	if err != nil {
		return err
	}
	b := clapd.FromRecording(rec, src, name, f.solver)
	if truncate > 0 {
		if truncate >= len(b.Log) {
			return usagef("-truncate-log %d would remove the whole %dB log", truncate, len(b.Log))
		}
		b.Log = b.Log[:len(b.Log)-truncate]
		fmt.Fprintf(os.Stderr, "clap: bundle log truncated by %dB (damaged upload for salvage testing)\n", truncate)
	}
	data, err := b.Encode()
	if err != nil {
		return err
	}
	if f.out == "" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(f.out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "clap: bundle %s written to %s (%dB, digest %.12s, seed %d, %d log events)\n",
		name, f.out, len(data), b.Digest(), rec.Seed, rec.Log.EventCount())
	return nil
}
