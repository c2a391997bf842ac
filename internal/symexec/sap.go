// Package symexec re-executes each thread symbolically along its recorded
// Ball–Larus path, producing the ingredients of CLAP's constraint system:
// the per-thread SAP sequences, the path conditions (Fpath), and the bug
// predicate (Fbug).
//
// It plays the role of the paper's modified KLEE: it follows exactly the
// recorded path (no exploration), returns a fresh symbolic value for every
// shared load, tracks non-shared state concretely-or-symbolically, and
// delays symbolic-address resolution using ordered write lists (§5).
package symexec

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/symbolic"
	"repro/internal/trace"
)

// SAPKind classifies shared access points. Reads and writes are the memory
// SAPs; the rest are the synchronization operations of Fso plus the
// per-thread Start/Exit pseudo-operations that fork and join map to.
type SAPKind uint8

// SAP kinds.
const (
	SAPStart SAPKind = iota
	SAPExit
	SAPRead
	SAPWrite
	SAPLock
	SAPUnlock
	SAPWaitBegin // releases the mutex, begins waiting
	SAPWaitEnd   // signaled and mutex reacquired
	SAPSignal
	SAPBroadcast
	SAPFork
	SAPJoin
	SAPYield
	SAPFence
)

var sapNames = map[SAPKind]string{
	SAPStart: "start", SAPExit: "exit", SAPRead: "read", SAPWrite: "write",
	SAPLock: "lock", SAPUnlock: "unlock", SAPWaitBegin: "wait-begin",
	SAPWaitEnd: "wait-end", SAPSignal: "signal", SAPBroadcast: "broadcast",
	SAPFork: "fork", SAPJoin: "join", SAPYield: "yield", SAPFence: "fence",
}

// String names the kind.
func (k SAPKind) String() string {
	if s, ok := sapNames[k]; ok {
		return s
	}
	return fmt.Sprintf("sap(%d)", uint8(k))
}

// IsMemory reports whether the SAP is a shared read or write.
func (k SAPKind) IsMemory() bool { return k == SAPRead || k == SAPWrite }

// IsSync reports whether the SAP is a synchronization operation.
func (k SAPKind) IsSync() bool { return !k.IsMemory() }

// MustInterleave reports whether the SAP is one of the paper's
// must-interleave operations (§4.2): operations that cause non-preemptive
// context switches and therefore delimit the segments used to count
// preemptions — wait, join, yield, exit (we include the start/fork sides
// of the same rendezvous too, as they equally force a switch).
func (k SAPKind) MustInterleave() bool {
	switch k {
	case SAPWaitBegin, SAPWaitEnd, SAPJoin, SAPYield, SAPExit, SAPStart:
		return true
	}
	return false
}

// NoAddr marks a memory SAP whose address is symbolic.
const NoAddr = -1

// SAP is one shared access point of the analyzed execution.
type SAP struct {
	// Thread and Seq identify the SAP: the Seq-th SAP of the thread in
	// program (issue) order.
	Thread trace.ThreadID
	Seq    int
	Kind   SAPKind

	// Var is the accessed global for memory SAPs.
	Var ir.GlobalID
	// Addr is the flat memory address, or NoAddr when the access index is
	// symbolic; then AddrIndex holds the element-index expression.
	Addr      int
	AddrIndex symbolic.Expr

	// Sym is the fresh symbol a read returns.
	Sym *symbolic.Sym
	// Val is the value expression a write stores.
	Val symbolic.Expr

	// Mutex is the lock for lock/unlock/wait SAPs; Cond the condition
	// variable for wait/signal/broadcast.
	Mutex ir.SyncID
	Cond  ir.SyncID

	// Other is the counterpart thread of fork and join.
	Other trace.ThreadID

	// MustLocks is the statically computed must-held lockset at the
	// access (memory SAPs only; zero when no lockset analysis ran).
	// Diagnostics and the constraint preprocessor use it as a
	// conservative mutual-exclusion hint.
	MustLocks ir.LockSet

	// Pos is the source position of the instruction that produced the SAP
	// (zero for the Start/Exit pseudo-operations, which have none). The
	// timeline and explain reports use it to point at source lines.
	Pos minic.Pos
}

// SameCell reports whether two memory SAPs definitely access the same
// cell, and whether they may: the same variable, and either both
// addresses concrete and equal or at least one symbolic.
func SameCell(a, b *SAP) (definitely, maybe bool) {
	if a.Var != b.Var {
		return false, false
	}
	if a.Addr != NoAddr && b.Addr != NoAddr {
		eq := a.Addr == b.Addr
		return eq, eq
	}
	return false, true
}

// String renders the SAP for diagnostics.
func (s *SAP) String() string {
	id := fmt.Sprintf("t%d#%d:%s", s.Thread, s.Seq, s.Kind)
	switch s.Kind {
	case SAPRead:
		return fmt.Sprintf("%s g%d@%d -> %s", id, s.Var, s.Addr, s.Sym)
	case SAPWrite:
		return fmt.Sprintf("%s g%d@%d = %s", id, s.Var, s.Addr, s.Val)
	case SAPFork, SAPJoin:
		return fmt.Sprintf("%s t%d", id, s.Other)
	case SAPLock, SAPUnlock:
		return fmt.Sprintf("%s m%d", id, s.Mutex)
	case SAPWaitBegin, SAPWaitEnd:
		return fmt.Sprintf("%s c%d/m%d", id, s.Cond, s.Mutex)
	case SAPSignal, SAPBroadcast:
		return fmt.Sprintf("%s c%d", id, s.Cond)
	}
	return id
}

// ThreadTrace is the symbolic summary of one thread.
type ThreadTrace struct {
	Thread trace.ThreadID
	// Parent/Index are the spawn identity (main has Parent -1).
	Parent trace.ThreadID
	Index  int32
	// SAPs in program order.
	SAPs []*SAP
	// PathCond are the Fpath conjuncts contributed by this thread: branch
	// conditions over symbolic reads, array bounds for symbolic indices,
	// and passed assertions.
	PathCond []symbolic.Expr
	// Exited reports whether the thread ran to completion in the recorded
	// execution (its trace then ends with an Exit SAP).
	Exited bool
}

// Analysis is the complete output of the symbolic execution phase.
type Analysis struct {
	Prog *ir.Program
	// Threads is indexed by thread id.
	Threads []*ThreadTrace
	// Bug is the Fbug predicate: it must hold for the failure to manifest
	// (the negation of the failing assertion's condition).
	Bug symbolic.Expr
	// BugThread is the thread whose assertion failed.
	BugThread trace.ThreadID
	// NumSyms is the number of symbolic read variables created.
	NumSyms int
	// ReadOf maps each symbol to its read SAP.
	ReadOf map[symbolic.SymID]*SAP
	// Shared is the sharing verdict used (indexed by ir.GlobalID).
	Shared []bool
}

// AllSAPs returns every SAP across threads (thread-major order).
func (a *Analysis) AllSAPs() []*SAP {
	var out []*SAP
	for _, t := range a.Threads {
		out = append(out, t.SAPs...)
	}
	return out
}

// SAPCount returns the paper's #SAPs.
func (a *Analysis) SAPCount() int {
	n := 0
	for _, t := range a.Threads {
		n += len(t.SAPs)
	}
	return n
}

// PathCondCount returns the number of Fpath conjuncts.
func (a *Analysis) PathCondCount() int {
	n := 0
	for _, t := range a.Threads {
		n += len(t.PathCond)
	}
	return n
}

// NoThread marks a FailureSpec with no failing thread: the recorded run
// ended without an assertion failure (only valid with Options.NoBug).
const NoThread trace.ThreadID = -1

// FailureSpec tells the analysis which assertion failed.
type FailureSpec struct {
	Thread trace.ThreadID
	Site   int
}
