package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/constraints"
	"repro/internal/obs"
	"repro/internal/solver"
)

// CacheSchema versions the on-disk artifact encoding. Bumped to /2 when
// address-split refinement retired the eager fallback: symbolic-address
// systems now solve through a different encoding, so schedules cached by
// /1 sessions are no longer comparable attempt-for-attempt.
const CacheSchema = "clap-cache/2"

// DiskCache is a content-addressed on-disk cache of reproduction
// artifacts: the preprocessing snapshot and the solved schedule, keyed by
// a recording content hash (Recording.ContentKey, or the caller's own
// digest — clapd passes its bundle digest so the daemon's dedupe and the
// cache share one address space).
//
// Every operation is best-effort: a missing, unreadable or stale entry is
// a miss, a failed write is ignored. Correctness never depends on the
// cache — a cached schedule is re-validated against the freshly built
// system before it is trusted (see Reproduce), so even a colliding or
// corrupted entry can cost at most one wasted validation. Writes go
// through a temp file + rename, so concurrent writers of the same key
// land on one intact entry. Clearing the cache is just removing the
// directory.
type DiskCache struct {
	Dir string
}

// OpenDiskCache creates the cache directory (if needed) and returns the
// cache.
func OpenDiskCache(dir string) (*DiskCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: create cache dir: %w", err)
	}
	return &DiskCache{Dir: dir}, nil
}

type cachedPre struct {
	Schema   string                   `json:"schema"`
	Snapshot *constraints.PreSnapshot `json:"snapshot"`
}

type cachedSchedule struct {
	Schema string               `json:"schema"`
	Solver string               `json:"solver"`
	Order  []constraints.SAPRef `json:"order"`
}

func (c *DiskCache) path(key, kind string) string {
	return filepath.Join(c.Dir, key+"."+kind+".json")
}

func (c *DiskCache) load(key, kind string, v any) bool {
	if c == nil || key == "" {
		return false
	}
	data, err := os.ReadFile(c.path(key, kind))
	if err != nil {
		return false
	}
	return json.Unmarshal(data, v) == nil
}

func (c *DiskCache) store(key, kind string, v any) {
	if c == nil || key == "" {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.Dir, "tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if os.Rename(name, c.path(key, kind)) != nil {
		os.Remove(name)
	}
}

// LoadPreprocess returns the cached preprocessing snapshot for key, or
// nil on a miss.
func (c *DiskCache) LoadPreprocess(key string) *constraints.PreSnapshot {
	var e cachedPre
	if !c.load(key, "pre", &e) || e.Schema != CacheSchema {
		return nil
	}
	return e.Snapshot
}

// StorePreprocess saves a preprocessing snapshot under key (best-effort).
func (c *DiskCache) StorePreprocess(key string, snap *constraints.PreSnapshot) {
	if snap == nil {
		return
	}
	c.store(key, "pre", &cachedPre{Schema: CacheSchema, Snapshot: snap})
}

// LoadSchedule returns the cached schedule order for key (and the solver
// that produced it), or nil on a miss.
func (c *DiskCache) LoadSchedule(key string) ([]constraints.SAPRef, string) {
	var e cachedSchedule
	if !c.load(key, "sched", &e) || e.Schema != CacheSchema || len(e.Order) == 0 {
		return nil, ""
	}
	return e.Order, e.Solver
}

// StoreSchedule saves a solved schedule under key (best-effort).
func (c *DiskCache) StoreSchedule(key string, order []constraints.SAPRef, solver string) {
	if len(order) == 0 {
		return
	}
	c.store(key, "sched", &cachedSchedule{Schema: CacheSchema, Solver: solver, Order: order})
}

// cachedSolve serves the solve stage from the schedule cache when the
// stored order still validates against the freshly built system; the
// validation is the safety net that makes any cache state — stale, torn,
// colliding — at worst a wasted O(n) check. A hit is recorded as its own
// "cache" attempt in the trail so `clap stats` and timelines show where
// the schedule came from.
func cachedSolve(rep *Reproduction, sys *constraints.System, cache *DiskCache, key string, sp *obs.Span) *solver.Solution {
	reg := rep.Trace.Reg()
	start := time.Now()
	order, by := cache.LoadSchedule(key)
	if order == nil {
		reg.Counter("core.cache.miss").Add(1)
		return nil
	}
	w, err := sys.ValidateSchedule(order)
	if err != nil {
		reg.Counter("core.cache.miss").Add(1)
		return nil
	}
	reg.Counter("core.cache.hit").Add(1)
	asp := sp.Start("cache")
	asp.SetAttr("solver", by)
	asp.End()
	rep.Attempts = append(rep.Attempts, SolverAttempt{
		Solver:       "cache",
		Elapsed:      time.Since(start),
		Outcome:      "solved",
		BoundReached: -1,
		Preemptions:  w.Preemptions,
	})
	return &solver.Solution{Order: order, Witness: w, Preemptions: w.Preemptions}
}

// solvedBy names the attempt that produced the solution: the trail's
// first attempt whose outcome is "solved".
func solvedBy(attempts []SolverAttempt) string {
	for _, a := range attempts {
		if a.Outcome == "solved" {
			return a.Solver
		}
	}
	return ""
}

// ContentKey is the recording's content address: a hex SHA-256 over a
// canonical length-prefixed serialization of every field that determines
// the constraint system and the solve — the program text, memory model,
// inputs, scheduler configuration, failure identity and the encoded path
// log. Mirrors clapd's Bundle.Digest framing so the two stay structurally
// comparable, but hashes the *decoded* recording (bundles hash their raw
// upload bytes before any salvage).
func (r *Recording) ContentKey() string {
	h := sha256.New()
	put := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	putInt := func(v int64) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(v))
		h.Write(n[:])
	}
	put(CacheSchema)
	put(r.Prog.Dump())
	put(r.Model.String())
	putInt(int64(len(r.Inputs)))
	for _, in := range r.Inputs {
		putInt(in)
	}
	putInt(r.Seed)
	putInt(int64(r.Chaos))
	putInt(int64(r.DrainBias))
	putInt(int64(r.MaxActions))
	putInt(int64(len(r.Demoted)))
	for _, d := range r.Demoted {
		if d {
			putInt(1)
		} else {
			putInt(0)
		}
	}
	if r.Failure != nil {
		putInt(int64(r.Failure.Kind))
		putInt(int64(r.Failure.Thread))
		putInt(int64(r.Failure.Site))
		put(r.Failure.Msg)
		putInt(int64(r.Failure.VisibleIndex))
	}
	if r.Log != nil {
		log := r.Log.Encode()
		putInt(int64(len(log)))
		h.Write(log)
	}
	return hex.EncodeToString(h.Sum(nil))
}
