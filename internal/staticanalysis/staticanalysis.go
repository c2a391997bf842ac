// Package staticanalysis implements the lockset and static happens-before
// analyses that sharpen the paper's coarse Locksmith-style sharing pass
// (internal/escape) into real race and deadlock intelligence:
//
//   - a flow-sensitive must-held lockset dataflow over each function's CFG,
//     interprocedurally summarized over the call graph and conservative at
//     recursion (a recursive cycle saturates to "no lock provably held",
//     mirroring escape's multiplicity saturation);
//   - a static happens-before relation from spawn/join and single
//     signal/wait edges;
//   - a may-held lock-order graph with cycle detection for
//     potential-deadlock lint.
//
// The results feed three consumers: `clap vet` prints potential races and
// lock-order cycles with source positions; the recorder demotes
// consistently-single-lock accesses from scheduling visibility
// (internal/core, internal/vm); and symbolic execution stamps every memory
// SAP with its must-held lockset (internal/symexec), which the constraint
// preprocessing pass consults when the reachability closure is unavailable.
package staticanalysis

import (
	"sort"

	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/minic"
)

// Access is one static access site to a shared global.
type Access struct {
	Fn     ir.FuncID
	Instr  ir.Instr
	Global ir.GlobalID
	Write  bool
	Pos    minic.Pos
	// Locks is the must-held lockset at the access.
	Locks ir.LockSet
}

// Race is a potential data race: two conflicting access sites with
// disjoint must-held locksets and no static happens-before order.
type Race struct {
	Global ir.GlobalID
	A, B   Access
}

// PairVerdict classifies one conflicting access-site pair, for predictive
// passes (internal/races) that use the static analysis as a cheap
// first-stage filter before asking the solver.
type PairVerdict uint8

// Pair verdicts.
const (
	// PairUnknown: the pair was never examined (an access outside the
	// analyzed sites). Callers must treat it as potentially racing.
	PairUnknown PairVerdict = iota
	// PairRace: the pair survived both static filters — a potential race.
	PairRace
	// PairLockExcluded: a common must-held mutex excludes the pair.
	PairLockExcluded
	// PairOrdered: the static happens-before patterns order the pair.
	PairOrdered
)

// String names the verdict.
func (v PairVerdict) String() string {
	switch v {
	case PairRace:
		return "race"
	case PairLockExcluded:
		return "lock-excluded"
	case PairOrdered:
		return "ordered"
	}
	return "unknown"
}

// pairSite identifies an access site by source position and kind — the
// identity that survives into the symbolic execution's SAPs, so dynamic
// accesses can be mapped back to their static verdict.
type pairSite struct {
	pos   minic.Pos
	write bool
}

type pairKey struct {
	global ir.GlobalID
	a, b   pairSite
}

// canonPair orders the two sites so (a,b) and (b,a) share a key.
func canonPair(g ir.GlobalID, a, b pairSite) pairKey {
	if siteLess(b, a) {
		a, b = b, a
	}
	return pairKey{global: g, a: a, b: b}
}

func siteLess(a, b pairSite) bool {
	if a.pos.Line != b.pos.Line {
		return a.pos.Line < b.pos.Line
	}
	if a.pos.Col != b.pos.Col {
		return a.pos.Col < b.pos.Col
	}
	return !a.write && b.write
}

// PairVerdictAt returns the static verdict for the conflicting site pair
// on global g identified by source position and access kind. Distinct
// instruction pairs that collapse onto the same source sites are merged
// conservatively: any racing instance makes the merged verdict PairRace.
func (r *Result) PairVerdictAt(g ir.GlobalID, posA minic.Pos, writeA bool, posB minic.Pos, writeB bool) PairVerdict {
	return r.verdicts[canonPair(g, pairSite{posA, writeA}, pairSite{posB, writeB})]
}

// recordVerdict stores one pair's verdict under its canonical key.
func (r *Result) recordVerdict(g ir.GlobalID, a, b Access, v PairVerdict) {
	if r.verdicts == nil {
		r.verdicts = map[pairKey]PairVerdict{}
	}
	key := canonPair(g, pairSite{a.Pos, a.Write}, pairSite{b.Pos, b.Write})
	if prev, ok := r.verdicts[key]; ok && (prev == PairRace || v != PairRace) {
		return // a racing instance dominates; otherwise first verdict wins
	}
	r.verdicts[key] = v
}

// LockEdge is one lock-order edge: Held was may-held when Acquired was
// acquired at Pos (in function Fn).
type LockEdge struct {
	Held, Acquired ir.SyncID
	Fn             ir.FuncID
	Pos            minic.Pos
}

// Cycle is a strongly connected component of the lock-order graph with
// more than one acquisition order — a potential deadlock.
type Cycle struct {
	// Mutexes lists the cycle's members in ascending id order.
	Mutexes []ir.SyncID
	// Edges are the graph edges internal to the cycle.
	Edges []LockEdge
}

// Result is the complete static-analysis outcome for one program.
type Result struct {
	Prog    *ir.Program
	Sharing *escape.Result

	// Must maps every instruction to the mutexes provably held when it
	// executes (the must-held lockset at the program point before it).
	Must map[ir.Instr]ir.LockSet

	// ConsistentLock maps each global to the single mutex that excludes
	// every pair of concurrent conflicting accesses to it, or -1.
	// Happens-before-ordered pairs (e.g. main's post-join check of a
	// worker counter) need no lock and do not spoil the verdict.
	ConsistentLock []ir.SyncID

	// Demotable marks shared globals whose every conflicting access pair
	// is either excluded by the consistent lock or statically ordered —
	// the accesses the recorder may demote from scheduling visibility.
	Demotable []bool

	// Accesses lists every access site to a shared global, ordered by
	// (function, block, instruction).
	Accesses []Access

	// Races lists the potential races, sorted for stable output.
	Races []Race

	// LockEdges is the deduplicated lock-order graph.
	LockEdges []LockEdge
	// Cycles lists the lock-order cycles (potential deadlocks).
	Cycles []Cycle

	// pair counters carried from the race pass into ComputeStats.
	pairs, lockExcluded, hbOrdered int
	// verdicts records every examined pair's classification, keyed by
	// canonical (global, site, site); see PairVerdictAt.
	verdicts map[pairKey]PairVerdict
}

// Stats condenses the result for -verbose output and bench snapshots.
type Stats struct {
	SharedVars    int
	ProtectedVars int // shared globals with a consistent protecting lock
	AccessSites   int
	Pairs         int // conflicting access pairs examined
	LockExcluded  int // pairs proven mutually excluded by a common lock
	HBOrdered     int // pairs proven ordered by static happens-before
	Races         int
	LockEdges     int
	Cycles        int
}

// analysis carries the per-program scaffolding shared by the passes.
type analysis struct {
	prog *ir.Program
	res  *Result

	callees   [][]ir.FuncID // direct call targets per function
	callClose []map[ir.FuncID]bool
	cfgs      []*funcCFG

	// rootMult and loops are the sharing analysis's thread-root
	// multiplicities and per-function loop membership.
	rootMult []escape.Multiplicity
	loops    []map[ir.BlockID]bool
	// spawnsOf lists the spawn sites per spawned function.
	spawnsOf map[ir.FuncID][]spawnSite
	// rootsOf caches which live roots each function can run in.
	rootsOf []([]ir.FuncID)
	// calledByLive marks functions invoked by an ordinary call from live
	// code; such a function's body may execute more than once per thread.
	calledByLive []bool
	// signals and waits index the live signal/broadcast and wait sites
	// per condition variable.
	signals, waits map[ir.SyncID][]syncSite

	// mayAt is the may-held lockset before each instruction, feeding the
	// lock-order graph.
	mayAt map[ir.Instr]ir.LockSet

	// needLock/candLock accumulate, per global, whether any concurrent
	// conflicting pair exists and the locks common to all of them.
	needLock []bool
	candLock []ir.LockSet
}

type syncSite struct {
	fn    ir.FuncID
	instr *ir.SyncOp
	block ir.BlockID
}

type spawnSite struct {
	fn     ir.FuncID // containing function
	instr  *ir.Spawn
	inLoop bool
	// joins are the join instructions consuming this spawn's handle, valid
	// only when the handle register has a single assignment.
	joins []*ir.SyncOp
}

// Analyze runs all three static passes on prog.
func Analyze(prog *ir.Program) *Result {
	a := &analysis{
		prog: prog,
		res: &Result{
			Prog:    prog,
			Sharing: escape.Analyze(prog),
			Must:    map[ir.Instr]ir.LockSet{},
		},
		spawnsOf: map[ir.FuncID][]spawnSite{},
	}
	a.buildScaffolding()
	a.locksets()
	a.collectAccesses()
	a.findRaces()
	a.consistentLocks()
	a.lockOrder()
	return a.res
}

// buildScaffolding computes the call graph, per-function CFG helpers and
// spawn sites with join mapping; loop membership and root multiplicities
// come from the sharing analysis.
func (a *analysis) buildScaffolding() {
	n := len(a.prog.Funcs)
	a.callees = make([][]ir.FuncID, n)
	a.loops = a.res.Sharing.Loops
	a.rootMult = a.res.Sharing.Roots
	a.cfgs = make([]*funcCFG, n)
	for fi, fn := range a.prog.Funcs {
		a.cfgs[fi] = newFuncCFG(fn)
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				switch x := in.(type) {
				case *ir.Call:
					a.callees[fi] = append(a.callees[fi], x.Func)
				case *ir.Spawn:
					a.spawnsOf[x.Func] = append(a.spawnsOf[x.Func], spawnSite{
						fn: ir.FuncID(fi), instr: x, inLoop: a.loops[fi][b.ID],
						joins: joinsOf(fn, x),
					})
				}
			}
		}
	}

	// Transitive call closure (including self), by fixpoint.
	a.callClose = make([]map[ir.FuncID]bool, n)
	for fi := range a.prog.Funcs {
		a.callClose[fi] = map[ir.FuncID]bool{ir.FuncID(fi): true}
	}
	for changed := true; changed; {
		changed = false
		for fi := range a.prog.Funcs {
			for _, c := range a.callees[fi] {
				for g := range a.callClose[c] {
					if !a.callClose[fi][g] {
						a.callClose[fi][g] = true
						changed = true
					}
				}
			}
		}
	}

	// rootsOf[f] = live roots whose call closure contains f.
	a.rootsOf = make([][]ir.FuncID, n)
	for fi := range a.prog.Funcs {
		for r := range a.prog.Funcs {
			if a.rootMult[r] == escape.MultNone {
				continue
			}
			if a.callClose[r][ir.FuncID(fi)] {
				a.rootsOf[fi] = append(a.rootsOf[fi], ir.FuncID(r))
			}
		}
	}

	// Live-code indexes for the happens-before pass: which functions are
	// called as ordinary functions, and where the signal/wait sites are.
	a.calledByLive = make([]bool, n)
	a.signals = map[ir.SyncID][]syncSite{}
	a.waits = map[ir.SyncID][]syncSite{}
	for fi, fn := range a.prog.Funcs {
		if len(a.rootsOf[fi]) == 0 {
			continue
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				switch x := in.(type) {
				case *ir.Call:
					a.calledByLive[x.Func] = true
				case *ir.SyncOp:
					site := syncSite{fn: ir.FuncID(fi), instr: x, block: b.ID}
					switch x.Kind {
					case ir.BuiltinSignal, ir.BuiltinBroadcast:
						a.signals[x.Obj] = append(a.signals[x.Obj], site)
					case ir.BuiltinWait:
						a.waits[x.Obj] = append(a.waits[x.Obj], site)
					}
				}
			}
		}
	}
}

// joinsOf finds the join instructions consuming a spawn's handle. The
// lowering lands the handle in a fresh temp and copies it to the declared
// variable, so the handle is tracked through chains of singly-assigned
// registers; any re-assignment makes the mapping invalid (nil).
func joinsOf(fn *ir.Func, sp *ir.Spawn) []*ir.SyncOp {
	defs := map[ir.Reg]int{}
	lastDef := map[ir.Reg]ir.Instr{}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if r, ok := defRegOf(in); ok {
				defs[r]++
				lastDef[r] = in
			}
		}
	}
	if defs[sp.Dst] != 1 {
		return nil
	}
	aliases := map[ir.Reg]bool{sp.Dst: true}
	for changed := true; changed; {
		changed = false
		for r, n := range defs {
			if n != 1 || aliases[r] {
				continue
			}
			if mv, ok := lastDef[r].(*ir.Mov); ok && aliases[mv.Src] {
				aliases[r] = true
				changed = true
			}
		}
	}
	var joins []*ir.SyncOp
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if so, ok := in.(*ir.SyncOp); ok && so.Kind == ir.BuiltinJoin && aliases[so.Arg] {
				joins = append(joins, so)
			}
		}
	}
	return joins
}

// defRegOf returns the register an instruction writes, if any.
func defRegOf(in ir.Instr) (ir.Reg, bool) {
	switch x := in.(type) {
	case *ir.Const:
		return x.Dst, true
	case *ir.ConstBool:
		return x.Dst, true
	case *ir.Mov:
		return x.Dst, true
	case *ir.UnOp:
		return x.Dst, true
	case *ir.BinOp:
		return x.Dst, true
	case *ir.LoadG:
		return x.Dst, true
	case *ir.LoadA:
		return x.Dst, true
	case *ir.Call:
		return x.Dst, x.Dst != ir.NoReg
	case *ir.Spawn:
		return x.Dst, true
	case *ir.Input:
		return x.Dst, true
	}
	return 0, false
}

// collectAccesses gathers every access site to a shared global in live
// functions, stamped with its must-held lockset.
func (a *analysis) collectAccesses() {
	for fi, fn := range a.prog.Funcs {
		if len(a.rootsOf[fi]) == 0 {
			continue // dead code never races
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				g, write := accessOf(in)
				if g < 0 || !a.res.Sharing.IsShared(g) {
					continue
				}
				a.res.Accesses = append(a.res.Accesses, Access{
					Fn: ir.FuncID(fi), Instr: in, Global: g, Write: write,
					Pos: ir.PosOf(in), Locks: a.res.Must[in],
				})
			}
		}
	}
}

// accessOf classifies an instruction as a global access; -1 for others.
func accessOf(in ir.Instr) (ir.GlobalID, bool) {
	switch x := in.(type) {
	case *ir.LoadG:
		return x.Global, false
	case *ir.StoreG:
		return x.Global, true
	case *ir.LoadA:
		return x.Array, false
	case *ir.StoreA:
		return x.Array, true
	}
	return -1, false
}

// consistentLocks derives the per-global demotion verdict from the race
// pass's pair accumulators: a global is demotable when its concurrent
// conflicting pairs all share one mutex (ConsistentLock) or when no such
// pair exists at all (purely happens-before-ordered traffic).
func (a *analysis) consistentLocks() {
	res := a.res
	res.ConsistentLock = make([]ir.SyncID, len(a.prog.Globals))
	res.Demotable = make([]bool, len(a.prog.Globals))
	seen := make([]bool, len(a.prog.Globals))
	for _, acc := range res.Accesses {
		seen[acc.Global] = true
	}
	for g := range a.prog.Globals {
		res.ConsistentLock[g] = -1
		if !seen[g] || !res.Sharing.IsShared(ir.GlobalID(g)) {
			continue
		}
		if a.needLock[g] {
			for m := range a.prog.Mutexes {
				if a.candLock[g].Has(ir.SyncID(m)) {
					res.ConsistentLock[g] = ir.SyncID(m)
					break
				}
			}
			res.Demotable[g] = res.ConsistentLock[g] >= 0
		} else {
			res.Demotable[g] = true
		}
	}
}

// ComputeStats condenses the result into counters.
func (r *Result) ComputeStats() Stats {
	st := Stats{
		SharedVars:  r.Sharing.SharedCount(),
		AccessSites: len(r.Accesses),
		Races:       len(r.Races),
		LockEdges:   len(r.LockEdges),
		Cycles:      len(r.Cycles),
	}
	for _, m := range r.ConsistentLock {
		if m >= 0 {
			st.ProtectedVars++
		}
	}
	st.Pairs, st.LockExcluded, st.HBOrdered = r.pairs, r.lockExcluded, r.hbOrdered
	return st
}

// pair counters are carried through from the race pass.
func (r *Result) setPairStats(pairs, lockExcluded, hbOrdered int) {
	r.pairs, r.lockExcluded, r.hbOrdered = pairs, lockExcluded, hbOrdered
}

// sortRaces orders races by (global, A position, B position).
func sortRaces(races []Race) {
	sort.Slice(races, func(i, j int) bool {
		a, b := races[i], races[j]
		if a.Global != b.Global {
			return a.Global < b.Global
		}
		if c := posCmp(a.A.Pos, b.A.Pos); c != 0 {
			return c < 0
		}
		return posCmp(a.B.Pos, b.B.Pos) < 0
	})
}

func posCmp(a, b minic.Pos) int {
	if a.Line != b.Line {
		return a.Line - b.Line
	}
	return a.Col - b.Col
}
