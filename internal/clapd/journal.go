// The write-ahead job journal: clapd's durability spine.
//
// Every job state transition is appended as one JSON line to
// <dir>/journal.wal and fsynced before the transition takes effect
// anywhere a client can observe it. The rules that make recovery sound:
//
//   - "queued" is fsynced before the ingest replies 201 — an accepted
//     job exists on disk before the client believes it exists.
//   - "done"/"poisoned" are fsynced after the job's artifacts are in the
//     store — a terminal journal state implies readable results.
//   - Recovery replays the journal (highest sequence number wins per
//     digest); non-terminal jobs are re-queued with their attempt count
//     bumped when they were mid-run, or poisoned when the budget is
//     spent. Terminal jobs are never transitioned again.
//
// A crash can truncate the final line mid-append; recovery tolerates a
// damaged tail (the same stance as the framed trace decoder: bound the
// loss to the unflushed suffix, keep everything before it). On open the
// journal is compacted — one line per digest — so the WAL stays
// proportional to the job population, not the restart count.
package clapd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// State is a job's lifecycle position.
type State string

// Job states. queued → running → done, with running → retrying → running
// loops on transient failures and running/retrying → poisoned when the
// attempt budget is exhausted or the failure is permanent.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateRetrying State = "retrying"
	StateDone     State = "done"
	StatePoisoned State = "poisoned"
)

// Terminal reports whether a job in this state will never run again.
func (s State) Terminal() bool { return s == StateDone || s == StatePoisoned }

// valid guards journal replay against corrupt or future state names.
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StateRetrying, StateDone, StatePoisoned:
		return true
	}
	return false
}

// Entry is one journal line.
type Entry struct {
	Seq     uint64 `json:"seq"`
	Digest  string `json:"digest"`
	State   State  `json:"state"`
	Attempt int    `json:"attempt"`
	Err     string `json:"err,omitempty"`
	// UnixNs timestamps the transition (diagnostics only; excluded from
	// deterministic tooling output).
	UnixNs int64 `json:"ts,omitempty"`
}

// JournalRecovery reports what replaying a journal found.
type JournalRecovery struct {
	// Entries counts intact lines replayed.
	Entries int
	// DroppedBytes is the length of a damaged tail (crash mid-append).
	DroppedBytes int
	// DroppedReason says why the tail was dropped ("" when clean).
	DroppedReason string
}

// Journal is the append-only WAL. All methods are safe for concurrent
// use; Append is the durability point and fsyncs before returning.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	seq  uint64
}

const journalName = "journal.wal"

// OpenJournal replays (tolerating a damaged tail), compacts, and reopens
// the journal for appending. It returns the latest entry per digest,
// ordered by sequence number — the daemon's recovery worklist.
func OpenJournal(dir string) (*Journal, []Entry, *JournalRecovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	path := filepath.Join(dir, journalName)
	entries, maxSeq, rec, err := replayJournal(path)
	if err != nil {
		return nil, nil, nil, err
	}
	// Compact: one line per digest, preserving sequence numbers, written
	// atomically so a crash mid-compaction keeps the old WAL intact.
	compacted, err := compactJournal(entries)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := atomicWrite(dir, journalName, compacted); err != nil {
		return nil, nil, nil, fmt.Errorf("clapd: journal compaction: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, err
	}
	return &Journal{path: path, f: f, seq: maxSeq}, entries, rec, nil
}

// compactJournal encodes entries as a journal, one line each.
func compactJournal(entries []Entry) ([]byte, error) {
	var buf bytes.Buffer
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// ReadJournal replays a journal without opening it for writing — the
// read-only view `clap jobs` uses, safe while a daemon holds the WAL.
func ReadJournal(dir string) ([]Entry, *JournalRecovery, error) {
	entries, _, rec, err := replayJournal(filepath.Join(dir, journalName))
	return entries, rec, err
}

// replayJournal parses the WAL, keeping the highest-sequence entry per
// digest. A line that fails to parse ends the replay: everything after
// it is unreachable (it may be the continuation of a torn write), so it
// is counted as the dropped tail rather than resynchronized — unlike
// trace frames, journal lines carry no checksums, and a clean prefix is
// exactly what fsync-before-ack guarantees survives.
func replayJournal(path string) ([]Entry, uint64, *JournalRecovery, error) {
	rec := &JournalRecovery{}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, rec, nil
	}
	if err != nil {
		return nil, 0, nil, err
	}
	latest := map[string]Entry{}
	var maxSeq uint64
	for off := 0; off < len(data); {
		// A line without a trailing newline is a torn append: the entry
		// may be a prefix of a longer record that happens to parse.
		line, torn := data[off:], true
		if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
			line, torn = line[:nl], false
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			rec.DroppedBytes = len(data) - off
			rec.DroppedReason = fmt.Sprintf("unparseable line at byte %d: %v", off, err)
			break
		}
		if !e.State.valid() || !validDigest(e.Digest) {
			rec.DroppedBytes = len(data) - off
			rec.DroppedReason = fmt.Sprintf("invalid entry at byte %d (state %q)", off, e.State)
			break
		}
		if torn {
			rec.DroppedBytes = len(data) - off
			rec.DroppedReason = fmt.Sprintf("torn final line at byte %d (no newline)", off)
			break
		}
		rec.Entries++
		if prev, ok := latest[e.Digest]; !ok || e.Seq >= prev.Seq {
			latest[e.Digest] = e
		}
		if e.Seq > maxSeq {
			maxSeq = e.Seq
		}
		off += len(line) + 1
	}
	out := make([]Entry, 0, len(latest))
	for _, e := range latest {
		out = append(out, e)
	}
	// Digests break sequence ties, so the order never depends on the map's.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].Digest < out[j].Digest
	})
	return out, maxSeq, rec, nil
}

// Append journals one transition and fsyncs it. The returned entry
// carries the assigned sequence number. Fire points clapd.journal.append
// (before the write) and clapd.journal.sync (between write and fsync)
// let chaos tests fail or kill the process on either side of the
// durability boundary.
func (j *Journal) Append(digest string, state State, attempt int, jobErr string) (Entry, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e := Entry{
		Seq:     j.seq,
		Digest:  digest,
		State:   state,
		Attempt: attempt,
		Err:     jobErr,
		UnixNs:  time.Now().UnixNano(),
	}
	line, err := json.Marshal(e)
	if err != nil {
		return Entry{}, err
	}
	if err := faultinject.Fire("clapd.journal.append"); err != nil {
		return Entry{}, err
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return Entry{}, err
	}
	if err := faultinject.Fire("clapd.journal.sync"); err != nil {
		return Entry{}, err
	}
	if err := j.f.Sync(); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// Close closes the WAL file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
