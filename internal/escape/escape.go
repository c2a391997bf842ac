// Package escape implements the static thread-sharing analysis that plays
// the role of the Locksmith-based shared-access identification in the
// paper (§5 "Shared Memory Access Identification").
//
// A global variable is *shared* when it may be accessed by more than one
// thread. The analysis is deliberately conservative (like the paper's): it
// computes, per function, the set of globals reachable through the call
// graph, determines which functions can run in which thread roots (main
// plus every spawned function), saturates thread multiplicity at "many"
// when a spawn site sits in a loop or a function is spawned from several
// sites, and marks a global shared when the total multiplicity of roots
// accessing it exceeds one.
//
// Identifying shared accesses statically is what keeps CLAP's recording
// free of runtime address tracking; the constraint encoder then only
// models shared accesses as SAPs, which "reduces the size of the
// constraints" (paper §5) without affecting soundness.
package escape

import (
	"slices"

	"repro/internal/ir"
)

// Result is the outcome of the sharing analysis.
type Result struct {
	// Shared is indexed by ir.GlobalID.
	Shared []bool
	// AccessedBy maps each global to the functions that access it directly
	// (diagnostics).
	AccessedBy map[ir.GlobalID][]ir.FuncID
	// Roots is each function's thread multiplicity as a thread root
	// (MultNone for a function that never starts a thread), indexed by
	// ir.FuncID.
	Roots []Multiplicity
	// Loops marks, per function, the blocks that sit inside a loop (see
	// BlocksInLoops).
	Loops []map[ir.BlockID]bool
}

// SharedCount returns the number of shared globals (the paper's #SV).
func (r *Result) SharedCount() int {
	n := 0
	for _, s := range r.Shared {
		if s {
			n++
		}
	}
	return n
}

// IsShared reports whether global g is thread-shared.
func (r *Result) IsShared(g ir.GlobalID) bool { return r.Shared[g] }

// Multiplicity counts thread instances, saturating at "many".
type Multiplicity uint8

// Multiplicities.
const (
	MultNone Multiplicity = iota
	MultOne
	MultMany
)

// add sums two multiplicities, saturating at MultMany.
func (m Multiplicity) add(o Multiplicity) Multiplicity {
	s := uint8(m) + uint8(o)
	if s >= uint8(MultMany) {
		return MultMany
	}
	return Multiplicity(s)
}

// spawnSite is one spawn of a function: who spawns, and whether the site
// is inside a loop of the spawning function.
type spawnSite struct {
	spawner ir.FuncID
	inLoop  bool
}

// Analyze runs the sharing analysis on prog.
func Analyze(prog *ir.Program) *Result {
	n := len(prog.Funcs)
	res := &Result{
		Shared:     make([]bool, len(prog.Globals)),
		AccessedBy: map[ir.GlobalID][]ir.FuncID{},
		Loops:      make([]map[ir.BlockID]bool, n),
	}

	// directAccess[f] = globals f's own instructions touch.
	directAccess := make([]map[ir.GlobalID]bool, n)
	// callees[f] = functions f calls directly.
	callees := make([][]ir.FuncID, n)
	spawnSites := map[ir.FuncID][]spawnSite{}

	for fi, fn := range prog.Funcs {
		directAccess[fi] = map[ir.GlobalID]bool{}
		res.Loops[fi] = BlocksInLoops(fn)
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				switch x := in.(type) {
				case *ir.LoadG:
					directAccess[fi][x.Global] = true
				case *ir.StoreG:
					directAccess[fi][x.Global] = true
				case *ir.LoadA:
					directAccess[fi][x.Array] = true
				case *ir.StoreA:
					directAccess[fi][x.Array] = true
				case *ir.Call:
					callees[fi] = append(callees[fi], x.Func)
				case *ir.Spawn:
					spawnSites[x.Func] = append(spawnSites[x.Func], spawnSite{
						spawner: ir.FuncID(fi),
						inLoop:  res.Loops[fi][b.ID],
					})
				}
			}
		}
	}

	// reach[f] = all globals accessed by f or its transitive callees.
	// Iterate to a fixpoint (handles recursion).
	reach := make([]map[ir.GlobalID]bool, n)
	for i := range reach {
		reach[i] = map[ir.GlobalID]bool{}
		for g := range directAccess[i] {
			reach[i][g] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fi := range prog.Funcs {
			for _, c := range callees[fi] {
				for g := range reach[c] {
					if !reach[fi][g] {
						reach[fi][g] = true
						changed = true
					}
				}
			}
		}
	}

	// Spawned functions are also "callees" in terms of which code a thread
	// root can transitively cause to run — but spawned code runs in its own
	// thread, so it is a separate root, not part of the spawner's closure.
	res.Roots = rootMultiplicities(prog, callees, spawnSites)

	// A global is shared when the roots that can access it have combined
	// multiplicity >= 2.
	for fi := range prog.Funcs {
		for g := range directAccess[fi] {
			res.AccessedBy[g] = append(res.AccessedBy[g], ir.FuncID(fi))
		}
	}
	// Sort explicitly rather than relying on the append order above, so
	// diagnostics stay deterministic under refactoring.
	for g := range res.AccessedBy {
		slices.Sort(res.AccessedBy[g])
	}
	for g := range prog.Globals {
		var m Multiplicity
		for fi, rm := range res.Roots {
			if rm != MultNone && reach[fi][ir.GlobalID(g)] {
				m = m.add(rm)
			}
		}
		res.Shared[g] = m >= MultMany
	}
	return res
}

// rootMultiplicities computes each function's multiplicity as a thread
// root. Main runs once as the initial thread. A spawned function's
// multiplicity sums, over its spawn sites, the number of threads that may
// run the spawner (saturated to many when the site is in a loop); a
// spawned main adds those instances to its initial one. Because spawners
// may themselves be spawned, iterate to a fixpoint.
func rootMultiplicities(prog *ir.Program, callees [][]ir.FuncID, spawnSites map[ir.FuncID][]spawnSite) []Multiplicity {
	n := len(prog.Funcs)
	roots := make([]Multiplicity, n)
	roots[prog.MainID] = MultOne
	for changed := true; changed; {
		changed = false
		// runMult[f]: how many threads may be executing f, as a root or
		// through calls (a callee runs in as many threads as its callers
		// combined).
		runMult := slices.Clone(roots)
		for again := true; again; {
			again = false
			for fi := range prog.Funcs {
				for _, c := range callees[fi] {
					combined := runMult[c].add(runMult[fi])
					if combined != runMult[c] {
						runMult[c] = combined
						again = true
					}
				}
			}
		}
		for f, sites := range spawnSites {
			var m Multiplicity
			for _, s := range sites {
				sm := runMult[s.spawner]
				if sm == MultNone {
					continue // spawner itself never runs
				}
				if s.inLoop {
					sm = MultMany
				}
				m = m.add(sm)
			}
			if f == prog.MainID {
				m = m.add(MultOne) // main also runs as the initial thread
			}
			if m != roots[f] {
				roots[f] = m
				changed = true
			}
		}
	}
	return roots
}

// BlocksInLoops reports which blocks of fn sit inside a natural loop,
// approximated as: blocks from which a back-edge source is reachable and
// which are reachable from the corresponding back-edge target.
func BlocksInLoops(fn *ir.Func) map[ir.BlockID]bool {
	in := map[ir.BlockID]bool{}
	back := fn.BackEdges()
	if len(back) == 0 {
		return in
	}
	// Reachability between blocks.
	reach := map[ir.BlockID]map[ir.BlockID]bool{}
	var dfs func(from ir.BlockID, b *ir.Block)
	dfs = func(from ir.BlockID, b *ir.Block) {
		if reach[from][b.ID] {
			return
		}
		reach[from][b.ID] = true
		for _, s := range b.Succs() {
			dfs(from, s)
		}
	}
	for _, b := range fn.Blocks {
		reach[b.ID] = map[ir.BlockID]bool{}
		dfs(b.ID, b)
	}
	for e := range back {
		src, dst := e[0], e[1]
		// Loop body: blocks reachable from dst that can reach src.
		for _, b := range fn.Blocks {
			if reach[dst][b.ID] && reach[b.ID][src] {
				in[b.ID] = true
			}
		}
	}
	return in
}
