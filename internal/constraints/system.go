// Package constraints encodes CLAP's execution constraint system
//
//	F = Fpath ∧ Fbug ∧ Fso ∧ Frw ∧ Fmo
//
// over two kinds of unknowns: the symbolic values returned by shared reads
// (created by internal/symexec) and one order variable per SAP. A model of
// F is a total order of the SAPs — a schedule — plus a value for every
// read, such that replaying the schedule reproduces the failure.
//
// The encoding follows §3 of the paper:
//
//   - Fpath: the per-thread path conditions (plus assertions that passed).
//   - Fbug: the negated failing assertion.
//   - Fso: fork<start and exit<join edges; mutual exclusion of lock
//     regions; and signal/wait mapping with per-signal cardinality one.
//   - Frw: every read maps to a same-address write with no intervening
//     same-address write, or to the initial value with every write after.
//   - Fmo: per-memory-model program-order retention — SC keeps everything;
//     TSO keeps R→R, W→W, R→W and same-address W→R; PSO further drops
//     W→W across different addresses.
//
// Two deliberate strengthenings of the paper's §3.2 presentation, both
// matching the real SPARC models and both required for causality (no
// out-of-thin-air values): TSO/PSO keep the R→W program order (a store
// never overtakes an earlier load) and PSO keeps R→R (SPARC PSO does not
// relax load ordering). With them, every SAP's value/address expression
// only depends on reads earlier in the order, so a schedule can be
// validated by a single forward pass (ValidateSchedule).
package constraints

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/symbolic"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/vm"
)

// SAPRef is a dense index into System.SAPs.
type SAPRef int32

// System is the encoded constraint system.
type System struct {
	An    *symexec.Analysis
	Model vm.MemModel

	// SAPs is the dense SAP table; Threads[tid] lists each thread's SAPs
	// in program order.
	SAPs    []*symexec.SAP
	Threads [][]SAPRef

	// HardEdges are unconditional order requirements a < b: the memory
	// order Fmo plus the fork/start and exit/join edges of Fso.
	HardEdges [][2]SAPRef

	// Reads holds the Frw structure: one entry per read SAP.
	Reads []ReadInfo

	// Regions holds the locking structure per mutex for Fso.
	Regions map[ir.SyncID][]Region

	// Waits holds the signal-mapping structure per completed wait.
	Waits []WaitInfo

	// Path is Fpath (all threads' conjuncts); Bug is Fbug.
	Path []symbolic.Expr
	Bug  symbolic.Expr

	// Layout gives flat addresses for memory simulation.
	Layout *ir.Layout

	// Pre holds the preprocessing report once Preprocess has run (nil
	// before). All backends share the preprocessed structure.
	Pre *PreStats

	refOf map[*symexec.SAP]SAPRef

	// scratch holds the pooled validation state. ValidateSchedule and
	// CountSwitches run millions of times under the parallel backend, so
	// their per-call state is recycled instead of reallocated; the pool
	// and caches are safe for concurrent validators. Adding sync state
	// makes System non-copyable, which it already was in spirit (refOf,
	// shared slices).
	scratch validateScratch
}

// ReadInfo lists the candidate writes a read may map to.
type ReadInfo struct {
	Read SAPRef
	// Cands are writes to the same variable whose address may equal the
	// read's (definitely-equal when both concrete). Writes by any thread,
	// including the reader. Preprocess may shrink this set; the pruned
	// writes provably cannot be the read's last writer in any schedule.
	Cands []SAPRef
	// Rivals is the full pre-pruning candidate set. Same-address interval
	// constraints ("no rival write between the mapped write and the read")
	// must range over Rivals: a write pruned as un-mappable still exists in
	// every schedule and still must stay outside the interval. Nil until
	// Preprocess runs; use AllRivals.
	Rivals []SAPRef
	// Init is the variable's initial value, the value the read returns
	// when it precedes every same-address write.
	Init int64
	// NoInit is set by Preprocess when some definitely-same-address write
	// unconditionally precedes the read: the initial value is unobservable.
	NoInit bool
	// Free is set by Preprocess when the read lies outside the cone of
	// influence of Fpath ∧ Fbug: its value feeds no path condition, no bug
	// predicate, no address expression and no cone write's value, so
	// solvers need not decide its mapping at all — any schedule position
	// yields a value the remaining constraints never observe.
	Free bool
}

// AllRivals returns the full same-variable rival write set: the
// pre-pruning candidate list when Preprocess has run, Cands otherwise.
func (ri *ReadInfo) AllRivals() []SAPRef {
	if ri.Rivals != nil {
		return ri.Rivals
	}
	return ri.Cands
}

// Region is one lock region [Lock, Unlock] on a mutex. HasUnlock is false
// when the thread still held the lock at the failure: the region never
// closes.
type Region struct {
	Thread    trace.ThreadID
	Lock      SAPRef
	Unlock    SAPRef
	HasUnlock bool
}

// WaitInfo is a completed wait (its begin and end halves) plus the
// signal/broadcast SAPs that may have woken it.
type WaitInfo struct {
	Begin, End SAPRef
	// Cands are signal or broadcast SAPs on the same condition variable by
	// other threads.
	Cands []SAPRef
}

// Ref returns the dense index of s.
func (sys *System) Ref(s *symexec.SAP) SAPRef { return sys.refOf[s] }

// SAP returns the SAP at ref.
func (sys *System) SAP(r SAPRef) *symexec.SAP { return sys.SAPs[r] }

// RegionMutexes returns the keys of sys.Regions in increasing mutex
// order. Regions is a map, so every consumer whose behaviour depends on
// iteration order — solver decision agendas, CNF variable numbering,
// rendered formulas — must range over this instead of the map, or the
// same system solves (and prints) differently run to run.
func (sys *System) RegionMutexes() []ir.SyncID {
	ms := make([]ir.SyncID, 0, len(sys.Regions))
	for m := range sys.Regions {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	return ms
}

// BuildWithSyncOrder encodes the system and additionally pins the recorded
// global synchronization order (the paper's §6.4 extension): entry k of
// order names the thread whose next synchronization SAP executed k-th.
// The extra hard edges shrink the schedule search dramatically — the
// ablation benchmarks quantify by how much — at the price of the runtime
// synchronization the recorder needed.
func BuildWithSyncOrder(an *symexec.Analysis, model vm.MemModel, order *trace.SyncOrderLog) (*System, error) {
	sys, err := Build(an, model)
	if err != nil {
		return nil, err
	}
	if order == nil || len(order.Seq) == 0 {
		return sys, nil
	}
	cursor := make([]int, len(sys.Threads))
	nextSync := func(t trace.ThreadID) (SAPRef, error) {
		refs := sys.Threads[t]
		for cursor[t] < len(refs) {
			r := refs[cursor[t]]
			cursor[t]++
			if sys.SAPs[r].Kind.IsSync() {
				return r, nil
			}
		}
		return -1, fmt.Errorf("constraints: sync order names thread %d beyond its recorded syncs", t)
	}
	var prev SAPRef = -1
	for _, t := range order.Seq {
		if int(t) >= len(sys.Threads) {
			return nil, fmt.Errorf("constraints: sync order names unknown thread %d", t)
		}
		r, err := nextSync(t)
		if err != nil {
			return nil, err
		}
		if prev >= 0 {
			sys.edge(prev, r)
		}
		prev = r
	}
	return sys, nil
}

// Build encodes the constraint system for an analysis under a memory model.
func Build(an *symexec.Analysis, model vm.MemModel) (*System, error) {
	sys := &System{
		An:      an,
		Model:   model,
		Regions: map[ir.SyncID][]Region{},
		Layout:  ir.NewLayout(an.Prog),
		refOf:   map[*symexec.SAP]SAPRef{},
		Bug:     an.Bug,
	}
	for _, tt := range an.Threads {
		var refs []SAPRef
		for _, s := range tt.SAPs {
			r := SAPRef(len(sys.SAPs))
			sys.SAPs = append(sys.SAPs, s)
			sys.refOf[s] = r
			refs = append(refs, r)
		}
		sys.Threads = append(sys.Threads, refs)
		sys.Path = append(sys.Path, tt.PathCond...)
	}
	if err := sys.buildMemoryOrder(); err != nil {
		return nil, err
	}
	if err := sys.buildSyncOrder(); err != nil {
		return nil, err
	}
	sys.buildReadWrite()
	return sys, nil
}

// edge adds a hard order edge a < b.
func (sys *System) edge(a, b SAPRef) {
	sys.HardEdges = append(sys.HardEdges, [2]SAPRef{a, b})
}

// buildMemoryOrder encodes Fmo.
func (sys *System) buildMemoryOrder() error {
	for _, refs := range sys.Threads {
		switch sys.Model {
		case vm.SC:
			for i := 0; i+1 < len(refs); i++ {
				sys.edge(refs[i], refs[i+1])
			}
		case vm.TSO, vm.PSO:
			sys.buildRelaxedOrder(refs)
		default:
			return fmt.Errorf("constraints: unknown memory model %v", sys.Model)
		}
	}
	return nil
}

// isFence reports whether a SAP kind drains the store buffer in the VM's
// relaxed execution: lock acquisition and release (real lock
// implementations include barriers — the reason the paper's relaxed bugs
// only live in lock-free code), both wait halves, explicit fences, and
// thread exit. Yield, spawn/start, join, signal and broadcast do NOT drain:
// a buffered store may become visible after them, and the encoding must
// admit exactly those executions or the recorded relaxed failure becomes
// infeasible.
func isFence(k symexec.SAPKind) bool {
	switch k {
	case symexec.SAPLock, symexec.SAPUnlock, symexec.SAPWaitBegin,
		symexec.SAPWaitEnd, symexec.SAPFence, symexec.SAPExit:
		return true
	}
	return false
}

// buildRelaxedOrder encodes the TSO/PSO per-thread order retention, exactly
// matching the store-buffer semantics of the VM:
//
//   - Reads and all synchronization operations execute in program order:
//     they form one "execution chain".
//   - A write is issued after the execution chain reaches it (R→W, S→W),
//     drains FIFO per thread under TSO (total W→W) or FIFO per address
//     under PSO (same-address W→W), must drain before the next fencing
//     sync (W→fence), and before any later same-address read of its own
//     thread observes it (the paper's same-address W→R rule).
//   - W→R across addresses and W→(non-fencing sync) are relaxed — the
//     store-buffer reorderings under study.
func (sys *System) buildRelaxedOrder(refs []SAPRef) {
	var lastExec SAPRef = -1  // last read or sync (execution chain)
	var lastWrite SAPRef = -1 // TSO: total write chain
	var pending []SAPRef      // writes issued since the last fence
	// lastSameAddrWrite scans the unfenced region for the most recent
	// possibly-same-address write (conservative for symbolic indices).
	lastSameAddrWrite := func(mem *symexec.SAP) SAPRef {
		for j := len(pending) - 1; j >= 0; j-- {
			p := sys.SAPs[pending[j]]
			if _, maybe := symexec.SameCell(p, mem); maybe {
				return pending[j]
			}
		}
		return -1
	}
	for _, r := range refs {
		s := sys.SAPs[r]
		switch {
		case s.Kind == symexec.SAPRead:
			if lastExec >= 0 {
				sys.edge(lastExec, r) // R→R, S→R
			}
			if w := lastSameAddrWrite(s); w >= 0 {
				sys.edge(w, r) // same-address W→R (store forwarding order)
			}
			lastExec = r
		case s.Kind == symexec.SAPWrite:
			if lastExec >= 0 {
				sys.edge(lastExec, r) // R→W, S→W: issue follows execution
			}
			if sys.Model == vm.TSO {
				if lastWrite >= 0 {
					sys.edge(lastWrite, r) // FIFO buffer: total W→W
				}
				lastWrite = r
			} else if w := lastSameAddrWrite(s); w >= 0 {
				sys.edge(w, r) // per-address FIFO under PSO
			}
			pending = append(pending, r)
		case isFence(s.Kind):
			if lastExec >= 0 {
				sys.edge(lastExec, r)
			}
			for _, w := range pending {
				sys.edge(w, r) // the fence drains every pending store
			}
			pending = pending[:0]
			lastWrite = -1
			lastExec = r
		default: // non-fencing sync: ordered in the execution chain only
			if lastExec >= 0 {
				sys.edge(lastExec, r)
			}
			lastExec = r
		}
	}
}

// buildSyncOrder encodes Fso: fork/start, exit/join, lock regions, and
// wait/signal candidates.
func (sys *System) buildSyncOrder() error {
	// fork < start, exit < join.
	starts := make([]SAPRef, len(sys.Threads))
	exits := make([]SAPRef, len(sys.Threads))
	for i := range starts {
		starts[i], exits[i] = -1, -1
	}
	for _, refs := range sys.Threads {
		for _, r := range refs {
			s := sys.SAPs[r]
			switch s.Kind {
			case symexec.SAPStart:
				starts[s.Thread] = r
			case symexec.SAPExit:
				exits[s.Thread] = r
			}
		}
	}
	for _, refs := range sys.Threads {
		for _, r := range refs {
			s := sys.SAPs[r]
			switch s.Kind {
			case symexec.SAPFork:
				if int(s.Other) < len(starts) && starts[s.Other] >= 0 {
					sys.edge(r, starts[s.Other])
				}
			case symexec.SAPJoin:
				if int(s.Other) >= len(exits) || exits[s.Other] < 0 {
					return fmt.Errorf("constraints: join of thread %d which never exited", s.Other)
				}
				sys.edge(exits[s.Other], r)
			}
		}
	}

	// Lock regions per mutex per thread: acquires are Lock/WaitEnd,
	// releases are Unlock/WaitBegin, paired in program order.
	type openRegion struct {
		lock SAPRef
	}
	for tid, refs := range sys.Threads {
		open := map[ir.SyncID]*openRegion{}
		for _, r := range refs {
			s := sys.SAPs[r]
			switch s.Kind {
			case symexec.SAPLock, symexec.SAPWaitEnd:
				if open[s.Mutex] != nil {
					return fmt.Errorf("constraints: thread %d reacquires held mutex m%d", tid, s.Mutex)
				}
				open[s.Mutex] = &openRegion{lock: r}
			case symexec.SAPUnlock, symexec.SAPWaitBegin:
				o := open[s.Mutex]
				if o == nil {
					return fmt.Errorf("constraints: thread %d releases unheld mutex m%d", tid, s.Mutex)
				}
				sys.Regions[s.Mutex] = append(sys.Regions[s.Mutex], Region{
					Thread: trace.ThreadID(tid), Lock: o.lock, Unlock: r, HasUnlock: true,
				})
				delete(open, s.Mutex)
			}
		}
		for m, o := range open {
			sys.Regions[m] = append(sys.Regions[m], Region{
				Thread: trace.ThreadID(tid), Lock: o.lock, HasUnlock: false,
			})
		}
	}

	// Wait/signal mapping: every completed wait needs a signal/broadcast
	// on its condition variable from another thread, ordered inside
	// (begin, end).
	for tid, refs := range sys.Threads {
		var begin SAPRef = -1
		byCond := map[ir.SyncID]SAPRef{}
		_ = begin
		for _, r := range refs {
			s := sys.SAPs[r]
			switch s.Kind {
			case symexec.SAPWaitBegin:
				byCond[s.Cond] = r
			case symexec.SAPWaitEnd:
				b, ok := byCond[s.Cond]
				if !ok {
					return fmt.Errorf("constraints: thread %d wait-end without begin on c%d", tid, s.Cond)
				}
				delete(byCond, s.Cond)
				wi := WaitInfo{Begin: b, End: r}
				for otid, orefs := range sys.Threads {
					if otid == tid {
						continue
					}
					for _, or := range orefs {
						os := sys.SAPs[or]
						if (os.Kind == symexec.SAPSignal || os.Kind == symexec.SAPBroadcast) && os.Cond == s.Cond {
							wi.Cands = append(wi.Cands, or)
						}
					}
				}
				if len(wi.Cands) == 0 {
					return fmt.Errorf("constraints: wait on c%d in thread %d has no candidate signal", s.Cond, tid)
				}
				sys.Waits = append(sys.Waits, wi)
			}
		}
	}
	return nil
}

// buildReadWrite encodes the Frw structure: candidate writes per read.
func (sys *System) buildReadWrite() {
	// Group writes by variable.
	writesByVar := map[ir.GlobalID][]SAPRef{}
	for i, s := range sys.SAPs {
		if s.Kind == symexec.SAPWrite {
			writesByVar[s.Var] = append(writesByVar[s.Var], SAPRef(i))
		}
	}
	for i, s := range sys.SAPs {
		if s.Kind != symexec.SAPRead {
			continue
		}
		ri := ReadInfo{Read: SAPRef(i), Init: sys.An.Prog.Globals[s.Var].Init}
		for _, w := range writesByVar[s.Var] {
			if _, maybe := symexec.SameCell(s, sys.SAPs[w]); maybe {
				ri.Cands = append(ri.Cands, w)
			}
		}
		sys.Reads = append(sys.Reads, ri)
	}
}
