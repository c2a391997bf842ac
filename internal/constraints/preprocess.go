package constraints

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/symbolic"
	"repro/internal/symexec"
)

// PreStats reports what the preprocessing pass removed. The counts are the
// paper's §4.1 story told from the other side: the constraint families are
// quadratic/cubic in candidate-set sizes, so every candidate pruned here
// is removed work in every backend.
type PreStats struct {
	// Reads is the total read count; FreeReads of them fell outside the
	// cone of influence of Fbug ∧ Fpath.
	Reads     int
	FreeReads int
	// CandsBefore/CandsAfter count read→write candidate edges before and
	// after pruning, split by rule.
	CandsBefore    int
	CandsAfter     int
	PrunedOrder    int // read →* write in the hard order
	PrunedShadowed int // a definitely-same-address write always intervenes
	PrunedLock     int // lock-region dominance kills both serializations
	PrunedMutex    int // mutual exclusion: every serialization shadows or reorders the write
	// NoInitReads counts reads whose initial-value choice was pruned.
	NoInitReads int
	// Wait→signal candidate edges before and after pruning.
	WaitCandsBefore int
	WaitCandsAfter  int
	// ClosureSkipped is set when the system was too large for the
	// reachability closure; only cone-of-influence marking ran.
	ClosureSkipped bool
	// Elapsed is the pass's wall time.
	Elapsed time.Duration
}

// String renders the report in one line.
func (p *PreStats) String() string {
	return fmt.Sprintf("preprocess: %d/%d read candidates pruned (order %d, shadowed %d, lock %d, mutex %d), %d/%d reads free, %d no-init, %d/%d wait candidates pruned, %v",
		p.CandsBefore-p.CandsAfter, p.CandsBefore, p.PrunedOrder, p.PrunedShadowed, p.PrunedLock, p.PrunedMutex,
		p.FreeReads, p.Reads, p.NoInitReads,
		p.WaitCandsBefore-p.WaitCandsAfter, p.WaitCandsBefore, p.Elapsed.Round(time.Microsecond))
}

// maxClosureSAPs bounds the bitset reachability closure (quadratic in
// memory): beyond it the pass degrades to cone-of-influence marking only.
const maxClosureSAPs = 16384

// Preprocess simplifies the system once, for every backend: it prunes
// read→write candidates that cannot be any schedule's last writer, marks
// reads outside the cone of influence of Fbug ∧ Fpath as Free, prunes
// unobservable initial-value choices and infeasible wait→signal
// candidates, and records reduction stats in sys.Pre. It is idempotent.
//
// Every rule is justified against the semantic ground truth
// (ValidateSchedule), which derives read values from the schedule alone
// and therefore cannot be affected by candidate pruning: the pass never
// changes which schedules are models, only how much work solvers spend
// finding one.
//
// Call it after all hard edges exist (i.e. after BuildWithSyncOrder's
// extra edges, when that entry point is used): the closure is computed
// from the hard-edge set at call time.
func (sys *System) Preprocess() *PreStats { return sys.PreprocessObs(nil) }

// PreprocessObs is Preprocess with span-level observability: each pruning
// rule runs under its own child span of sp, so a trace shows where the
// pass's time went. A nil sp records nothing and costs nothing.
func (sys *System) PreprocessObs(sp *obs.Span) *PreStats {
	if sys.Pre != nil {
		return sys.Pre
	}
	start := time.Now()
	st := &PreStats{Reads: len(sys.Reads)}

	csp := sp.Start("preprocess.closure")
	// Cyclic hard edges also leave r nil: the system is unsatisfiable,
	// and the solvers report it.
	var r *Reach
	if len(sys.SAPs) <= maxClosureSAPs {
		r = NewReach(len(sys.SAPs), sys.HardEdges)
	}
	st.ClosureSkipped = r == nil
	csp.SetAttr("skipped", strconv.FormatBool(st.ClosureSkipped))
	csp.End()

	rsp := sp.Start("preprocess.prune.reads")
	if r != nil {
		sys.pruneCandidates(r, st)
	} else {
		sys.pruneCandidatesNoClosure(st)
	}
	rsp.SetInt("pruned", int64(st.CandsBefore-st.CandsAfter))
	rsp.End()

	wsp := sp.Start("preprocess.prune.waits")
	if r != nil {
		sys.pruneWaitCandidates(r, st)
	} else {
		for i := range sys.Waits {
			st.WaitCandsBefore += len(sys.Waits[i].Cands)
			st.WaitCandsAfter += len(sys.Waits[i].Cands)
		}
	}
	wsp.SetInt("pruned", int64(st.WaitCandsBefore-st.WaitCandsAfter))
	wsp.End()

	fsp := sp.Start("preprocess.free.reads")
	sys.markFreeReads(st)
	fsp.SetInt("free", int64(st.FreeReads))
	fsp.End()

	st.Elapsed = time.Since(start)
	sys.Pre = st
	return st
}

// Reach is the transitive closure of an order relation over SAPs, as one
// bitset row per SAP: bit b of row a means a strictly precedes b.
type Reach struct {
	words int
	bits  []uint64
}

// Reaches reports whether a strictly precedes b.
func (r *Reach) Reaches(a, b SAPRef) bool {
	return r.bits[int(a)*r.words+int(b)>>6]&(1<<(uint(b)&63)) != 0
}

// NewReach computes the transitive closure of edges over n SAPs with one
// reverse-topological sweep. It returns nil when n is zero or the edges
// are cyclic.
func NewReach(n int, edges [][2]SAPRef) *Reach {
	if n == 0 {
		return nil
	}
	adj := make([][]SAPRef, n)
	indeg := make([]int, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		indeg[e[1]]++
	}
	// Kahn topological order.
	order := make([]SAPRef, 0, n)
	queue := make([]SAPRef, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, SAPRef(i))
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, v)
		for _, w := range adj[v] {
			if indeg[w]--; indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		return nil
	}
	r := &Reach{words: (n + 63) / 64, bits: make([]uint64, n*((n+63)/64))}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		row := r.bits[int(v)*r.words : (int(v)+1)*r.words]
		for _, w := range adj[v] {
			row[int(w)>>6] |= 1 << (uint(w) & 63)
			succ := r.bits[int(w)*r.words : (int(w)+1)*r.words]
			for k := range row {
				row[k] |= succ[k]
			}
		}
	}
	return r
}

// pregion is a flattened lock region for the dominance rule.
type pregion struct {
	lock, unlock SAPRef
	hasUnlock    bool
	thread       int
	mutex        int
}

// pruneCandidates applies the three candidate-pruning rules and the
// no-init rule to every read. Cands shrinks; Rivals keeps the full set.
func (sys *System) pruneCandidates(r *Reach, st *PreStats) {
	regs, regionsOf := sys.regionIndex(r)

	// shadowKilled reports whether candidate w is dead in the "Rw wholly
	// before Rr" serialization of a cross-thread region pair: a
	// definitely-same-address write w' trapped between w and Rw's unlock
	// intervenes before the read in that serialization.
	shadowInRegion := func(read *symexec.SAP, rivals []SAPRef, w SAPRef, reg *pregion) bool {
		for _, w2 := range rivals {
			if w2 == w {
				continue
			}
			if def, _ := symexec.SameCell(sys.SAPs[w2], read); !def {
				continue
			}
			if r.Reaches(w, w2) && r.Reaches(w2, reg.unlock) {
				return true
			}
		}
		return false
	}

	// readSideShadow is the mutual-exclusion rule's second disjunct: a
	// definitely-same-address write w3 trapped between the read's region
	// lock and the read itself. In the "write's region first" serialization
	// of the region pair, w precedes that lock, so w3 shadows it.
	readSideShadow := func(read *symexec.SAP, rivals []SAPRef, w SAPRef, readReg *pregion, ri *ReadInfo) bool {
		for _, w3 := range rivals {
			if w3 == w {
				continue
			}
			if def, _ := symexec.SameCell(sys.SAPs[w3], read); !def {
				continue
			}
			if r.Reaches(readReg.lock, w3) && r.Reaches(w3, ri.Read) {
				return true
			}
		}
		return false
	}

	for i := range sys.Reads {
		ri := &sys.Reads[i]
		ri.Rivals = ri.Cands
		st.CandsBefore += len(ri.Cands)
		read := sys.SAPs[ri.Read]

		kept := make([]SAPRef, 0, len(ri.Cands))
	cand:
		for _, w := range ri.Cands {
			// Rule 1 (program order): the read unconditionally precedes the
			// write, so the write can never be before the read.
			if r.Reaches(ri.Read, w) {
				st.PrunedOrder++
				continue
			}
			// Rule 2 (shadowing): a definitely-same-address write w' is
			// unconditionally between w and the read, so w is never the last
			// writer.
			for _, w2 := range ri.Rivals {
				if def, _ := symexec.SameCell(sys.SAPs[w2], read); !def {
					continue
				}
				if r.Reaches(w, w2) && r.Reaches(w2, ri.Read) {
					st.PrunedShadowed++
					continue cand
				}
			}
			// Rule 3 (lock-region dominance): the write and the read sit in
			// cross-thread regions of the same mutex. The regions serialize
			// one way or the other; "read's region first" puts the read
			// before the write, and "write's region first" is dead when the
			// write's region is open (it must come last) or a
			// definitely-same-address write shadows w inside it.
			for _, pw := range regionsOf[w] {
				rw := &regs[pw]
				for _, pr := range regionsOf[ri.Read] {
					rr := &regs[pr]
					if pw == pr || rw.mutex != rr.mutex || rw.thread == rr.thread {
						continue
					}
					if !rw.hasUnlock || shadowInRegion(read, ri.Rivals, w, rw) {
						st.PrunedLock++
						continue cand
					}
					// Rule 4 (mutual exclusion, read side): the regions
					// serialize one way or the other. "Read's region first"
					// puts the read before w (rw is closed, so the order is
					// read ≤ unlock(Rr) < lock(Rw) ≤ w, or Rr is open and
					// this serialization cannot happen at all). "Write's
					// region first" puts w before lock(Rr), where a
					// definitely-same-address write between lock(Rr) and the
					// read shadows it. Either way w is never the last writer.
					if readSideShadow(read, ri.Rivals, w, rr, ri) {
						st.PrunedMutex++
						continue cand
					}
				}
			}
			kept = append(kept, w)
		}
		ri.Cands = kept
		st.CandsAfter += len(kept)

		// No-init: a definitely-same-address write unconditionally precedes
		// the read, so the initial value is unobservable.
		for _, w := range ri.Rivals {
			if def, _ := symexec.SameCell(sys.SAPs[w], read); !def {
				continue
			}
			if r.Reaches(w, ri.Read) {
				ri.NoInit = true
				st.NoInitReads++
				break
			}
		}
	}
}

// pruneCandidatesNoClosure is the mutual-exclusion rule for systems too
// large for the reachability closure. It needs no closure because the
// containments it uses are same-thread program order, which the hard
// edges enforce under every memory model (lock/unlock are fences: a
// write's order variable is pinned after the region's lock and a read's
// before its unlock). A cross-thread candidate w is dead when the static
// lockset analysis proves both accesses hold a mutex m and w's enclosing
// region of m is open: the open region must serialize last, so the read
// precedes w in every schedule.
func (sys *System) pruneCandidatesNoClosure(st *PreStats) {
	for i := range sys.Reads {
		ri := &sys.Reads[i]
		ri.Rivals = ri.Cands
		st.CandsBefore += len(ri.Cands)
		read := sys.SAPs[ri.Read]
		kept := make([]SAPRef, 0, len(ri.Cands))
	cand:
		for _, w := range ri.Cands {
			ws := sys.SAPs[w]
			if ws.Thread != read.Thread {
				common := ws.MustLocks.Inter(read.MustLocks)
				for m, regions := range sys.Regions {
					if !common.Has(m) {
						continue
					}
					wOpen, rIn := false, false
					for j := range regions {
						reg := &regions[j]
						if !reg.HasUnlock && sys.poInRegion(w, reg) {
							wOpen = true
						}
						if sys.poInRegion(ri.Read, reg) {
							rIn = true
						}
					}
					if wOpen && rIn {
						st.PrunedMutex++
						continue cand
					}
				}
			}
			kept = append(kept, w)
		}
		ri.Cands = kept
		st.CandsAfter += len(kept)
	}
}

// poInRegion reports whether SAP s sits inside the region in its thread's
// program (Seq) order.
func (sys *System) poInRegion(s SAPRef, reg *Region) bool {
	sp, lk := sys.SAPs[s], sys.SAPs[reg.Lock]
	if sp.Thread != lk.Thread || sp.Seq <= lk.Seq {
		return false
	}
	return !reg.HasUnlock || sp.Seq < sys.SAPs[reg.Unlock].Seq
}

// regionIndex flattens Regions and computes, for every SAP, the regions
// that unconditionally contain it: reaches(lock, s) and (for closed
// regions) reaches(s, unlock). Reachability-based containment is exactly
// what the dominance argument needs — it holds in every schedule, not
// just program order.
func (sys *System) regionIndex(r *Reach) ([]pregion, [][]int32) {
	var regs []pregion
	for m, regions := range sys.Regions {
		for _, reg := range regions {
			regs = append(regs, pregion{
				lock: reg.Lock, unlock: reg.Unlock, hasUnlock: reg.HasUnlock,
				thread: int(reg.Thread), mutex: int(m),
			})
		}
	}
	regionsOf := make([][]int32, len(sys.SAPs))
	if len(regs) == 0 {
		return regs, regionsOf
	}
	for s := range sys.SAPs {
		if !sys.SAPs[s].Kind.IsMemory() {
			continue
		}
		for gi := range regs {
			g := &regs[gi]
			if !r.Reaches(g.lock, SAPRef(s)) {
				continue
			}
			if g.hasUnlock && !r.Reaches(SAPRef(s), g.unlock) {
				continue
			}
			regionsOf[s] = append(regionsOf[s], int32(gi))
		}
	}
	return regs, regionsOf
}

// pruneWaitCandidates drops signals that can never wake a wait: a signal
// ordered after the wait's end, or before its begin, is outside the
// (begin, end) window in every schedule.
func (sys *System) pruneWaitCandidates(r *Reach, st *PreStats) {
	for i := range sys.Waits {
		wi := &sys.Waits[i]
		st.WaitCandsBefore += len(wi.Cands)
		kept := wi.Cands[:0:0]
		for _, sg := range wi.Cands {
			if r.Reaches(wi.End, sg) || r.Reaches(sg, wi.Begin) {
				continue
			}
			kept = append(kept, sg)
		}
		wi.Cands = kept
		st.WaitCandsAfter += len(kept)
	}
}

// markFreeReads computes the cone of influence of Fbug ∧ Fpath and marks
// every read outside it Free. The cone seeds with the symbols of every
// path condition, the bug predicate and every SAP's address expression,
// then closes over candidate-write value expressions: a needed read's
// value can only come from one of its (post-pruning) candidate writes or
// the initial value, so only those writes' dependencies join the cone.
func (sys *System) markFreeReads(st *PreStats) {
	readIdx := make(map[symbolic.SymID]int, len(sys.Reads))
	for i := range sys.Reads {
		readIdx[sys.SAPs[sys.Reads[i].Read].Sym.ID] = i
	}
	needed := make([]bool, len(sys.Reads))
	var queue []int
	mark := func(ids []symbolic.SymID) {
		for _, id := range ids {
			if ri, ok := readIdx[id]; ok && !needed[ri] {
				needed[ri] = true
				queue = append(queue, ri)
			}
		}
	}
	for _, c := range sys.Path {
		mark(symbolic.Syms(c, nil, nil))
	}
	if sys.Bug != nil {
		mark(symbolic.Syms(sys.Bug, nil, nil))
	}
	for _, s := range sys.SAPs {
		if s.AddrIndex != nil {
			mark(symbolic.Syms(s.AddrIndex, nil, nil))
		}
	}
	for len(queue) > 0 {
		ri := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range sys.Reads[ri].Cands {
			mark(symbolic.Syms(sys.SAPs[w].Val, nil, nil))
		}
	}
	for i := range sys.Reads {
		if !needed[i] {
			sys.Reads[i].Free = true
			st.FreeReads++
		}
	}
}
