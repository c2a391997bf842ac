// Package vm executes IR programs with multiple threads under a pluggable
// scheduler and a configurable memory model.
//
// The VM is the substrate that plays the roles of PThreads, the OS
// scheduler and the shared-memory hardware in the paper's setting:
//
//   - Scheduling nondeterminism is fully controlled by a Scheduler, which
//     picks the next action at every visible operation (shared access,
//     synchronization, thread start/exit, store-buffer drain). A seeded
//     random scheduler triggers bugs; a replay scheduler enforces a
//     computed schedule deterministically.
//   - The TSO and PSO relaxed memory models are simulated with per-thread
//     (TSO) and per-thread-per-address (PSO) FIFO store buffers whose drain
//     points are themselves schedulable actions, the same simulation style
//     the paper uses to trigger its relaxed-memory bugs.
//   - Recording hooks implement CLAP's Ball–Larus path logging and the LEAP
//     baseline's synchronized access-vector logging; running with no hooks
//     gives the native baseline for Table 2.
//
// The VM is single-goroutine and fully deterministic given a deterministic
// scheduler, which is exactly what a record/replay study needs.
package vm

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/trace"
)

// ThreadID identifies a VM thread; it aliases the trace package's id so
// logs and VM agree.
type ThreadID = trace.ThreadID

// MemModel selects the simulated memory consistency model.
type MemModel uint8

// Memory models.
const (
	// SC is sequential consistency: stores are immediately visible.
	SC MemModel = iota
	// TSO gives every thread one FIFO store buffer (stores may be delayed
	// past subsequent loads, W→R reordering).
	TSO
	// PSO gives every thread one FIFO store buffer per address (stores to
	// different addresses may additionally drain out of order, W→W
	// reordering).
	PSO
)

// String names the model.
func (m MemModel) String() string {
	switch m {
	case SC:
		return "SC"
	case TSO:
		return "TSO"
	case PSO:
		return "PSO"
	}
	return fmt.Sprintf("model(%d)", uint8(m))
}

// threadState enumerates the lifecycle of a thread.
type threadState uint8

const (
	stCreated threadState = iota // spawned, Start event pending
	stRunnable
	stBlockedLock // waiting to acquire a mutex
	stBlockedCond // waiting inside wait() for a signal
	stSignaled    // signaled, waiting to reacquire the wait mutex
	stBlockedJoin // waiting for a child to exit
	stExiting     // root frame returned, Exit event pending
	stFinished
)

// ThreadKey is the paper's deterministic thread identity: the spawning
// thread plus the child's ordinal among the parent's spawns. It is stable
// across schedules of the same program, unlike raw spawn order.
type ThreadKey struct {
	Parent ThreadID
	Index  int32
}

// MainKey is the key of the main thread.
var MainKey = ThreadKey{Parent: -1, Index: 0}

// Thread is one VM thread.
type Thread struct {
	ID    ThreadID
	Key   ThreadKey
	state threadState
	// frames is the call stack; the top is frames[len-1].
	frames []*frame
	// buf is the store buffer (nil under SC).
	buf *storeBuffer
	// waitMutex/waitCond/waitChild record what a blocked thread waits for.
	waitMutex int
	waitCond  int
	waitChild ThreadID
	// children counts spawns, producing child Index values.
	children int32
	// visibleCount counts executed visible events (SAP occurrences).
	visibleCount int
}

// frame is one activation record.
type frame struct {
	fn     *ir.Func
	regs   []Value
	block  *ir.Block
	ip     int    // next instruction index within block
	retReg ir.Reg // caller register receiving the return value
	trk    pathTracker
}

// Value is a dynamically typed register value: a 64-bit integer or a
// boolean. The mini language has no implicit conversions; using one where
// the other is expected is a runtime error.
type Value struct {
	I      int64
	B      bool
	IsBool bool
}

// IntVal makes an integer value.
func IntVal(i int64) Value { return Value{I: i} }

// BoolVal makes a boolean value.
func BoolVal(b bool) Value { return Value{B: b, IsBool: true} }

// String renders the value.
func (v Value) String() string {
	if v.IsBool {
		return fmt.Sprintf("%t", v.B)
	}
	return fmt.Sprintf("%d", v.I)
}

// FailureKind classifies how a run ended abnormally.
type FailureKind uint8

// Failure kinds.
const (
	// FailAssert is an assertion violation — the concurrency failure CLAP
	// reproduces.
	FailAssert FailureKind = iota
	// FailDeadlock means no thread can make progress.
	FailDeadlock
	// FailRuntime is a trap: division by zero, array bounds, lock misuse.
	FailRuntime
)

// String names the kind.
func (k FailureKind) String() string {
	switch k {
	case FailAssert:
		return "assertion violation"
	case FailDeadlock:
		return "deadlock"
	case FailRuntime:
		return "runtime error"
	}
	return fmt.Sprintf("failure(%d)", uint8(k))
}

// Failure describes an abnormal end of a run.
type Failure struct {
	Kind FailureKind
	// Thread is the failing thread (meaningless for deadlocks).
	Thread ThreadID
	// Site is the assertion site id (FailAssert only).
	Site int
	Msg  string
	// VisibleIndex is how many visible events the failing thread had
	// executed when it failed.
	VisibleIndex int
}

// Error renders the failure as an error message.
func (f *Failure) Error() string {
	return fmt.Sprintf("vm: %s in thread %d: %s", f.Kind, f.Thread, f.Msg)
}

// Config parameterizes a run.
type Config struct {
	Model MemModel
	// Inputs backs the input(k) builtin.
	Inputs []int64
	// MaxActions bounds the scheduler loop (0 means a generous default).
	MaxActions int
	// Sched decides every scheduling point. Required.
	Sched Scheduler
	// Shared marks thread-shared globals (indexed by ir.GlobalID), as
	// computed by internal/escape. Accesses to non-shared globals are plain
	// local instructions: not scheduling points, not SAPs, not recorded by
	// LEAP. A nil slice conservatively treats every global as shared.
	Shared []bool
	// Demoted marks shared globals whose accesses the static lockset /
	// happens-before analysis proved free of concurrent conflicting
	// access. Demoted accesses keep full shared-memory semantics (store
	// buffers, value injection) but are not scheduling points, visible
	// events, or LEAP-recorded accesses: with no concurrent rival the
	// interleaving around them is irrelevant, so the recorder skips them
	// the same way partial-order reduction skips invisible transitions.
	// Nil demotes nothing. Ignored for globals not marked in Shared.
	Demoted []bool
	// PathRecorder, if non-nil, records CLAP thread-local path logs.
	PathRecorder *PathRecorder
	// LeapRecorder, if non-nil, records LEAP per-variable access vectors.
	LeapRecorder *LeapRecorder
	// SyncRecorder, if non-nil, records the global synchronization order
	// (the paper's §6.4 optional extension; costs a real lock per sync op).
	SyncRecorder *SyncOrderRecorder
	// OnVisible, if non-nil, observes every visible event right after it
	// executes (used by the replayer to verify schedule conformance).
	OnVisible func(ev VisibleEvent)
	// ReadValue, if non-nil, intercepts shared loads: when it reports ok,
	// the load returns its value instead of consulting memory. The replayer
	// uses this to enforce the solver's read-write mapping under relaxed
	// models (the paper triggers and replays its TSO/PSO bugs by
	// "actively controlling the value returned by shared data loads").
	ReadValue func(t ThreadID, addr int) (int64, bool)
	// PickWaiter, if non-nil, chooses which of the waiting threads a
	// signal wakes (default: the lowest thread id). The replayer picks the
	// waiter whose wake comes first in the computed schedule so that
	// signal delivery matches the solver's wait/signal mapping.
	PickWaiter func(c ir.SyncID, waiters []ThreadID) ThreadID
	// GateAccess, if non-nil, is consulted before every shared access;
	// returning false blocks the thread at the access (the action is
	// consumed without progress and the access retried when the thread is
	// next scheduled). It models blocking record/replay instrumentation —
	// LEAP's per-variable access-vector waits (internal/leap).
	GateAccess func(t ThreadID, g ir.GlobalID, isWrite bool) bool
}

// Result summarizes a run.
type Result struct {
	// Failure is nil for a clean completion.
	Failure *Failure
	// Instructions counts executed IR instructions.
	Instructions int64
	// Branches counts executed conditional branch terminators.
	Branches int64
	// VisibleEvents counts executed visible events (shared accesses plus
	// synchronizations plus thread start/exit) — the paper's #SAPs.
	VisibleEvents int64
	// Output is the sequence of printed values.
	Output []int64
	// FinalMem is the memory image at the end of the run (after draining
	// all store buffers).
	FinalMem []int64
	// Threads is the number of threads that existed.
	Threads int
	// PathLog is the CLAP record (nil when not recording).
	PathLog *trace.PathLog
	// LeapLog is the LEAP record (nil when not recording).
	LeapLog *trace.AccessVectorLog
}

// ErrActionBudget reports a run that exceeded Config.MaxActions — usually a
// livelock under an adversarial schedule (e.g. a spin loop that is never
// allowed to observe its exit condition). Bug hunts treat such seeds as
// uninteresting and move on.
var ErrActionBudget = fmt.Errorf("vm: exceeded the action budget (livelock?)")

// VM is a single run's machine state.
type VM struct {
	prog *ir.Program
	conf Config

	mem     []int64
	base    []int         // global id -> offset into mem
	addrVar []ir.GlobalID // offset -> owning global (for diagnostics/LEAP)

	threads []*Thread
	mutexes []mutexState
	conds   []condState

	instructions int64
	branches     int64
	visible      int64
	eventClock   int64 // next VisibleEvent.Time (all events, drains included)
	output       []int64
	failure      *Failure
	actionCount  int
	// acts is EnabledActions' result buffer, reused at every step.
	acts []Action
}

type mutexState struct {
	held  bool
	owner ThreadID
}

type condState struct{}

// New builds a VM for one run of prog.
func New(prog *ir.Program, conf Config) (*VM, error) {
	if conf.Sched == nil {
		return nil, fmt.Errorf("vm: config requires a scheduler")
	}
	if conf.MaxActions == 0 {
		conf.MaxActions = 50_000_000
	}
	v := &VM{prog: prog, conf: conf}
	v.base = make([]int, len(prog.Globals))
	off := 0
	for i, g := range prog.Globals {
		v.base[i] = off
		n := 1
		if g.IsArray() {
			n = g.Size
		}
		for k := 0; k < n; k++ {
			v.addrVar = append(v.addrVar, ir.GlobalID(i))
		}
		off += n
	}
	v.mem = make([]int64, off)
	for i, g := range prog.Globals {
		n := 1
		if g.IsArray() {
			n = g.Size
		}
		for k := 0; k < n; k++ {
			v.mem[v.base[i]+k] = g.Init
		}
	}
	v.mutexes = make([]mutexState, len(prog.Mutexes))
	v.conds = make([]condState, len(prog.Conds))

	main := v.newThread(MainKey, prog.MainID, nil)
	_ = main
	return v, nil
}

// newThread registers a thread running fn with the given arguments.
func (v *VM) newThread(key ThreadKey, fn ir.FuncID, args []Value) *Thread {
	t := &Thread{
		ID:    ThreadID(len(v.threads)),
		Key:   key,
		state: stCreated,
	}
	if v.conf.Model != SC {
		t.buf = newStoreBuffer(v.conf.Model)
	}
	f := v.prog.Funcs[fn]
	fr := &frame{
		fn:    f,
		regs:  make([]Value, f.NumRegs),
		block: f.Entry,
	}
	copy(fr.regs, args)
	t.frames = []*frame{fr}
	v.threads = append(v.threads, t)
	if v.conf.PathRecorder != nil {
		v.conf.PathRecorder.threadStarted(t.ID, key)
		v.conf.PathRecorder.enter(t.ID, fr)
	}
	return t
}

// Addr computes the flat memory address of a global access; it reports an
// error for out-of-bounds array indices.
func (v *VM) Addr(g ir.GlobalID, idx int64) (int, error) {
	gv := v.prog.Globals[g]
	if !gv.IsArray() {
		return v.base[g], nil
	}
	if idx < 0 || idx >= int64(gv.Size) {
		return 0, fmt.Errorf("index %d out of range [0,%d) for array %s", idx, gv.Size, gv.Name)
	}
	return v.base[g] + int(idx), nil
}

// VarOfAddr returns which global owns a flat address.
func (v *VM) VarOfAddr(addr int) ir.GlobalID { return v.addrVar[addr] }

// Prog returns the program under execution.
func (v *VM) Prog() *ir.Program { return v.prog }

// Threads returns the current thread table.
func (v *VM) Threads() []*Thread { return v.threads }

// Mem returns the current memory image (without store-buffer contents).
func (v *VM) Mem() []int64 { return v.mem }

// Run drives the scheduler loop to completion and returns the result.
func (v *VM) Run() (*Result, error) {
	for {
		if v.failure != nil && v.failure.Kind == FailAssert {
			break
		}
		acts := v.EnabledActions()
		if len(acts) == 0 {
			if v.allFinished() {
				break
			}
			v.failure = &Failure{Kind: FailDeadlock, Msg: v.describeBlocked()}
			break
		}
		v.actionCount++
		if v.actionCount > v.conf.MaxActions {
			return nil, fmt.Errorf("%w (%d actions)", ErrActionBudget, v.conf.MaxActions)
		}
		idx := v.conf.Sched.Pick(v, acts)
		if idx < 0 || idx >= len(acts) {
			return nil, fmt.Errorf("vm: scheduler picked invalid action %d of %d", idx, len(acts))
		}
		if err := v.perform(acts[idx]); err != nil {
			if f, ok := err.(*Failure); ok {
				v.failure = f
				break
			}
			return nil, err
		}
	}
	if v.failure != nil && v.conf.PathRecorder != nil {
		v.conf.PathRecorder.dumpPartial(v)
	}
	// Drain buffers so FinalMem is a plain memory image.
	for _, t := range v.threads {
		if t.buf != nil {
			t.buf.drainAll(v.mem)
		}
	}
	res := &Result{
		Failure:       v.failure,
		Instructions:  v.instructions,
		Branches:      v.branches,
		VisibleEvents: v.visible,
		Output:        v.output,
		FinalMem:      append([]int64(nil), v.mem...),
		Threads:       len(v.threads),
	}
	if v.conf.PathRecorder != nil {
		res.PathLog = v.conf.PathRecorder.Log
	}
	if v.conf.LeapRecorder != nil {
		res.LeapLog = v.conf.LeapRecorder.Log
	}
	return res, nil
}

func (v *VM) allFinished() bool {
	for _, t := range v.threads {
		if t.state != stFinished {
			return false
		}
	}
	return true
}

func (v *VM) describeBlocked() string {
	var parts []string
	for _, t := range v.threads {
		switch t.state {
		case stBlockedLock:
			parts = append(parts, fmt.Sprintf("t%d waits for mutex %s", t.ID, v.prog.Mutexes[t.waitMutex]))
		case stBlockedCond:
			parts = append(parts, fmt.Sprintf("t%d waits on cond %s", t.ID, v.prog.Conds[t.waitCond]))
		case stSignaled:
			parts = append(parts, fmt.Sprintf("t%d reacquiring mutex %s", t.ID, v.prog.Mutexes[t.waitMutex]))
		case stBlockedJoin:
			parts = append(parts, fmt.Sprintf("t%d joins t%d", t.ID, t.waitChild))
		}
	}
	if len(parts) == 0 {
		return "all runnable threads stuck"
	}
	s := parts[0]
	for _, p := range parts[1:] {
		s += "; " + p
	}
	return s
}

// EnabledActions enumerates the schedulable actions in a deterministic
// order: thread run actions by thread id, then drain actions by thread id
// and ascending address. A thread's id is its index in the thread table,
// so building the list in table order gives that order without sorting.
// The slice is the VM's own buffer: it is valid only until the next step.
func (v *VM) EnabledActions() []Action {
	acts := v.acts[:0]
	for _, t := range v.threads {
		if v.canRun(t) {
			acts = append(acts, Action{Kind: ActRun, Thread: t.ID})
		}
	}
	for _, t := range v.threads {
		if t.buf == nil {
			continue
		}
		for _, addr := range t.buf.drainableAddrs() {
			acts = append(acts, Action{Kind: ActDrain, Thread: t.ID, Addr: addr})
		}
	}
	v.acts = acts
	return acts
}

// canRun reports whether a run action for t can make progress right now.
func (v *VM) canRun(t *Thread) bool {
	switch t.state {
	case stCreated, stRunnable, stExiting:
		return true
	case stSignaled:
		return !v.mutexes[t.waitMutex].held
	case stBlockedLock:
		return !v.mutexes[t.waitMutex].held
	case stBlockedJoin:
		return v.threads[t.waitChild].state == stFinished
	default:
		return false
	}
}
