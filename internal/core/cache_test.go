package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/constraints"
	"repro/internal/obs"
	"repro/internal/vm"
)

const cacheSrc = `
int x;
func t1() {
	x = 1;
}
func main() {
	int h = spawn t1();
	x = 2;
	join(h);
	int v = x;
	assert(v == 2, "overwritten");
}
`

func TestContentKeyStability(t *testing.T) {
	a := recordSrc(t, cacheSrc, vm.SC)
	b := recordSrc(t, cacheSrc, vm.SC)
	if a.ContentKey() != b.ContentKey() {
		t.Fatal("identical recordings must share a content key")
	}
	c := recordSrc(t, `
int y;
func t1() { y = 3; }
func main() {
	int h = spawn t1();
	y = 4;
	join(h);
	int v = y;
	assert(v == 4, "overwritten");
}
`, vm.SC)
	if a.ContentKey() == c.ContentKey() {
		t.Fatal("different programs must not collide")
	}
	if len(a.ContentKey()) != 64 {
		t.Fatalf("content key %q is not hex SHA-256", a.ContentKey())
	}
}

// cacheCounters reproduces rec with the given cache and returns the
// core.cache.{hit,miss} counter values plus the attempt trail.
func cacheCounters(t *testing.T, rec *Recording, cache *DiskCache) (hit, miss int64, attempts []SolverAttempt) {
	t.Helper()
	tr := obs.NewTrace("test")
	rep, err := Reproduce(rec, ReproduceOptions{
		Cache: cache,
		Obs:   tr,
	})
	if err != nil {
		t.Fatalf("reproduce: %v", err)
	}
	snap := tr.Report()
	return snap.Counters["core.cache.hit"], snap.Counters["core.cache.miss"], rep.Attempts
}

func TestDiskCacheHitAndMiss(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenDiskCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}

	rec := recordSrc(t, cacheSrc, vm.SC)
	hit, miss, attempts := cacheCounters(t, rec, cache)
	if hit != 0 || miss != 1 {
		t.Fatalf("cold run: hit=%d miss=%d, want 0/1", hit, miss)
	}
	for _, a := range attempts {
		if a.Solver == "cache" {
			t.Fatal("cold run must not report a cache attempt")
		}
	}

	// A fresh recording of the same program lands on the same content key
	// and must be served its schedule from the cache.
	rec2 := recordSrc(t, cacheSrc, vm.SC)
	hit, miss, attempts = cacheCounters(t, rec2, cache)
	if hit != 1 || miss != 0 {
		t.Fatalf("warm run: hit=%d miss=%d, want 1/0", hit, miss)
	}
	if len(attempts) == 0 || attempts[len(attempts)-1].Solver != "cache" {
		t.Fatalf("warm run attempts = %+v, want a final cache attempt", attempts)
	}

	// Corrupt every cache entry: the pipeline must fall back to solving
	// and re-store a good entry.
	ents, err := os.ReadDir(cache.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".json") {
			if err := os.WriteFile(filepath.Join(cache.Dir, e.Name()), []byte("{broken"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	hit, miss, _ = cacheCounters(t, recordSrc(t, cacheSrc, vm.SC), cache)
	if hit != 0 || miss != 1 {
		t.Fatalf("corrupted run: hit=%d miss=%d, want 0/1", hit, miss)
	}
	hit, miss, _ = cacheCounters(t, recordSrc(t, cacheSrc, vm.SC), cache)
	if hit != 1 || miss != 0 {
		t.Fatalf("repaired run: hit=%d miss=%d, want 1/0", hit, miss)
	}
}

// TestCachedScheduleRevalidated pins the safety contract: a cache entry
// holding a bogus schedule under the right key must be rejected by
// validation and degrade to a normal solve.
func TestCachedScheduleRevalidated(t *testing.T) {
	cache, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := recordSrc(t, cacheSrc, vm.SC)
	key := rec.ContentKey()
	// A wrong-length order: validation rejects it before anything trusts it.
	cache.StoreSchedule(key, []constraints.SAPRef{0, 1, 2}, "bogus")

	hit, miss, attempts := cacheCounters(t, rec, cache)
	if hit != 0 || miss != 1 {
		t.Fatalf("bogus entry: hit=%d miss=%d, want 0/1", hit, miss)
	}
	for _, a := range attempts {
		if a.Solver == "cache" {
			t.Fatal("bogus schedule must not be served")
		}
	}
}

// TestCacheRecordsSolvingAttempt pins which solver a cached schedule is
// attributed to: the attempt that solved, not whichever attempt the trail
// happens to end with.
func TestCacheRecordsSolvingAttempt(t *testing.T) {
	cache, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := recordSrc(t, cacheSrc, vm.SC)
	rep, err := Reproduce(rec, ReproduceOptions{Solver: Portfolio, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if by := solvedBy(rep.Attempts); by != "enumerate" {
		t.Fatalf("solving attempt %q, want enumerate: %+v", by, rep.Attempts)
	}
	if _, by := cache.LoadSchedule(rec.ContentKey()); by != "enumerate" {
		t.Fatalf("cache attributes the schedule to %q, want enumerate", by)
	}
	trail := []SolverAttempt{{Solver: "enumerate", Outcome: "interrupted"}, {Solver: "cnf", Outcome: "solved"}}
	if by := solvedBy(trail); by != "cnf" {
		t.Fatalf("solvedBy(%+v) = %q, want cnf", trail, by)
	}
}
