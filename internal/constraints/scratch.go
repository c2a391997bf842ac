// Pooled per-call scratch for schedule validation. ValidateSchedule is the
// inner loop of the parallel generate-and-validate backend — Table 3 of the
// paper generates millions of candidates per benchmark and validates each —
// so the O(n) working state (position index, memory image, last-writer
// table, symbol environment, lock/signal simulation) is recycled through a
// sync.Pool on the System instead of being reallocated per candidate.
package constraints

import (
	"sync"

	"repro/internal/ir"
	"repro/internal/symbolic"
	"repro/internal/trace"
)

// validateScratch is the System-owned cache shared by all validators.
type validateScratch struct {
	pool sync.Pool // of *validator

	// predsMu guards the lazily built dense hard-edge predecessor table;
	// the edge count detects (build-time) growth and rebuilds.
	predsMu    sync.Mutex
	predsEdges int
	preds      [][]SAPRef

	// initOnce caches the initial memory image; Layout and the program's
	// globals are immutable once the system is built.
	initOnce sync.Once
	initImg  []int64
}

// hardPredsTable returns preds[r] = hard-edge predecessors of r, built once
// and rebuilt only if edges were added since (which only happens during
// system construction, never during solving).
func (sys *System) hardPredsTable() [][]SAPRef {
	c := &sys.scratch
	c.predsMu.Lock()
	defer c.predsMu.Unlock()
	if c.preds == nil || c.predsEdges != len(sys.HardEdges) {
		t := make([][]SAPRef, len(sys.SAPs))
		for _, e := range sys.HardEdges {
			t[e[1]] = append(t[e[1]], e[0])
		}
		c.preds = t
		c.predsEdges = len(sys.HardEdges)
	}
	return c.preds
}

// initImage returns the cached pristine memory image; callers copy it.
func (sys *System) initImage() []int64 {
	sys.scratch.initOnce.Do(func() {
		sys.scratch.initImg = sys.Layout.InitImage(sys.An.Prog)
	})
	return sys.scratch.initImg
}

// denseEnv is a symbolic.Env over a flat slice indexed by SymID. Validity
// is generation-stamped so reuse costs one counter bump, not an
// O(NumSyms) clear.
type denseEnv struct {
	vals []int64
	gen  []uint32
	cur  uint32
}

// Value implements symbolic.Env.
func (d *denseEnv) Value(id symbolic.SymID) (int64, bool) {
	i := int(id)
	if i < 0 || i >= len(d.vals) || d.gen[i] != d.cur {
		return 0, false
	}
	return d.vals[i], true
}

func (d *denseEnv) bind(id symbolic.SymID, v int64) {
	i := int(id)
	for i >= len(d.vals) {
		d.vals = append(d.vals, 0)
		d.gen = append(d.gen, 0)
	}
	d.vals[i] = v
	d.gen[i] = d.cur
}

func (d *denseEnv) reset(n int) {
	if len(d.vals) < n {
		d.vals = make([]int64, n)
		d.gen = make([]uint32, n)
		d.cur = 0
	}
	d.cur++
	if d.cur == 0 { // generation counter wrapped: stale stamps could collide
		for i := range d.gen {
			d.gen[i] = 0
		}
		d.cur = 1
	}
}

// lockOwner is the simulated state of one mutex.
type lockOwner struct {
	held  bool
	owner trace.ThreadID
}

// validator is one pooled validation scratch: the forward-pass state of
// ValidateSchedule plus the replay state of CountSwitches. The two halves
// are disjoint, so one validator serves a full validate-then-count call.
type validator struct {
	pos        []int
	mem        []int64
	lastWriter []SAPRef
	// mapped[r] is the read r's last writer; entries are only read after
	// being written in the same pass, so it needs no reset.
	mapped       []SAPRef
	env          denseEnv
	locks        map[ir.SyncID]lockOwner
	signalsAt    map[ir.SyncID][]int
	broadcastsAt map[ir.SyncID][]int
	waitBeganAt  map[SAPRef]int

	// CountSwitches state.
	scheduled []bool
	next      []int
	gate      *SyncGate
}

func (sys *System) getValidator() *validator {
	if v, ok := sys.scratch.pool.Get().(*validator); ok {
		return v
	}
	return &validator{
		locks:        map[ir.SyncID]lockOwner{},
		signalsAt:    map[ir.SyncID][]int{},
		broadcastsAt: map[ir.SyncID][]int{},
		waitBeganAt:  map[SAPRef]int{},
		gate:         sys.NewSyncGate(),
	}
}

func (sys *System) putValidator(v *validator) { sys.scratch.pool.Put(v) }

// resetForValidate prepares the forward-pass half for a system of n SAPs.
func (v *validator) resetForValidate(sys *System, n int) {
	if cap(v.pos) < n {
		v.pos = make([]int, n)
	}
	v.pos = v.pos[:n]
	for i := range v.pos {
		v.pos[i] = -1
	}
	v.mem = append(v.mem[:0], sys.initImage()...)
	size := sys.Layout.Size
	if cap(v.lastWriter) < size {
		v.lastWriter = make([]SAPRef, size)
	}
	v.lastWriter = v.lastWriter[:size]
	for i := range v.lastWriter {
		v.lastWriter[i] = -1
	}
	if cap(v.mapped) < n {
		v.mapped = make([]SAPRef, n)
	}
	v.mapped = v.mapped[:n]
	v.env.reset(sys.An.NumSyms)
	clear(v.locks)
	clear(v.waitBeganAt)
	// Keep the per-cond slices' capacity, drop their contents.
	for k, s := range v.signalsAt {
		v.signalsAt[k] = s[:0]
	}
	for k, s := range v.broadcastsAt {
		v.broadcastsAt[k] = s[:0]
	}
}

// resetForCount prepares the CountSwitches half.
func (v *validator) resetForCount(sys *System, n int) {
	if cap(v.scheduled) < n {
		v.scheduled = make([]bool, n)
	}
	v.scheduled = v.scheduled[:n]
	for i := range v.scheduled {
		v.scheduled[i] = false
	}
	nt := len(sys.Threads)
	if cap(v.next) < nt {
		v.next = make([]int, nt)
	}
	v.next = v.next[:nt]
	for i := range v.next {
		v.next[i] = 0
	}
	v.gate.Reset()
}
