package staticanalysis

import (
	"sort"

	"repro/internal/escape"
	"repro/internal/ir"
)

// The happens-before pass decides, for a pair of access sites that share
// no lock, whether some pair of live thread instances could execute them
// concurrently. It is deliberately conservative: a pair is ordered only
// when one of a few airtight structural patterns applies, all of which
// require the ordering function to execute exactly once (a mult-one root
// body that is never called as an ordinary function):
//
//   - spawn/join separation: every spawn site of the other root sits in
//     the observer's own root body, and the access is either before the
//     spawn on every path or dominated by a join of its handle;
//   - phase separation: every instance of one root is joined before any
//     instance of the other is spawned;
//   - signal/wait separation: a condition variable with a single live
//     signal site and a single live wait site, neither in a loop, orders
//     accesses before the signal against accesses after the wait.
//
// Anything the patterns cannot prove is reported as potentially
// concurrent, which errs toward false positives in `vet` and toward
// keeping candidates in the constraint system — never toward missing a
// real race.

// funcCFG carries instruction-granularity reachability and dominance for
// one function.
type funcCFG struct {
	fn  *ir.Func
	pos map[ir.Instr]ipos
	// succReach[b1][b2] is true when b2's start is reachable from b1's
	// terminator via one or more edges.
	succReach [][]bool
}

type ipos struct {
	block ir.BlockID
	idx   int
}

func newFuncCFG(fn *ir.Func) *funcCFG {
	c := &funcCFG{fn: fn, pos: map[ir.Instr]ipos{}}
	nb := len(fn.Blocks)
	c.succReach = make([][]bool, nb)
	for _, b := range fn.Blocks {
		for i, in := range b.Instrs {
			c.pos[in] = ipos{b.ID, i}
		}
		row := make([]bool, nb)
		for _, s := range b.Succs() {
			row[s.ID] = true
		}
		c.succReach[b.ID] = row
	}
	// Transitive closure; the CFGs are tiny.
	for k := 0; k < nb; k++ {
		for i := 0; i < nb; i++ {
			if !c.succReach[i][k] {
				continue
			}
			for j := 0; j < nb; j++ {
				if c.succReach[k][j] {
					c.succReach[i][j] = true
				}
			}
		}
	}
	return c
}

// instrReach reports whether an execution can pass through x and later
// reach y (both in this function).
func (c *funcCFG) instrReach(x, y ir.Instr) bool {
	px, ok1 := c.pos[x]
	py, ok2 := c.pos[y]
	if !ok1 || !ok2 {
		return true // unknown instruction: assume reachable
	}
	if px.block == py.block && py.idx > px.idx {
		return true
	}
	return c.succReach[px.block][py.block]
}

// dominates reports whether every path from the entry to p executes j
// first. Computed by flooding the CFG from the entry while refusing to
// execute past j; p dominates-checks as "not reachable without j".
func (c *funcCFG) dominates(j, p ir.Instr) bool {
	pj, ok1 := c.pos[j]
	pp, ok2 := c.pos[p]
	if !ok1 || !ok2 || j == p {
		return false
	}
	visited := make([]bool, len(c.fn.Blocks))
	visited[c.fn.Entry.ID] = true
	queue := []*ir.Block{c.fn.Entry}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if b.ID == pj.block {
			continue // execution stops at j inside this block
		}
		for _, s := range b.Succs() {
			if !visited[s.ID] {
				visited[s.ID] = true
				queue = append(queue, s)
			}
		}
	}
	if pp.block == pj.block {
		return !(visited[pj.block] && pp.idx < pj.idx)
	}
	return !visited[pp.block]
}

// findRaces examines every conflicting pair of shared access sites.
func (a *analysis) findRaces() {
	byGlobal := map[ir.GlobalID][]Access{}
	var order []ir.GlobalID
	for _, acc := range a.res.Accesses {
		if _, ok := byGlobal[acc.Global]; !ok {
			order = append(order, acc.Global)
		}
		byGlobal[acc.Global] = append(byGlobal[acc.Global], acc)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	// Per-global lock-consistency accumulators for the demotion verdict:
	// the intersection of common locksets over the concurrent conflicting
	// pairs (HB-ordered pairs need no lock and do not constrain it).
	a.needLock = make([]bool, len(a.prog.Globals))
	a.candLock = make([]ir.LockSet, len(a.prog.Globals))
	for i := range a.candLock {
		a.candLock[i] = ir.AllLocks(a.prog)
	}

	pairs, lockExcl, hbOrd := 0, 0, 0
	for _, g := range order {
		accs := byGlobal[g]
		for i := 0; i < len(accs); i++ {
			for j := i; j < len(accs); j++ {
				x, y := accs[i], accs[j]
				if !x.Write && !y.Write {
					continue
				}
				pairs++
				common := x.Locks.Inter(y.Locks)
				conc := a.concurrent(x, y)
				if conc {
					a.needLock[g] = true
					a.candLock[g] = a.candLock[g].Inter(common)
				}
				if !common.Empty() {
					lockExcl++
					a.res.recordVerdict(g, x, y, PairLockExcluded)
					continue
				}
				if !conc {
					hbOrd++
					a.res.recordVerdict(g, x, y, PairOrdered)
					continue
				}
				a.res.recordVerdict(g, x, y, PairRace)
				a.res.Races = append(a.res.Races, Race{Global: g, A: x, B: y})
			}
		}
	}
	sortRaces(a.res.Races)
	a.res.setPairStats(pairs, lockExcl, hbOrd)
}

// concurrent reports whether some pair of live thread instances can run x
// and y with no happens-before order between them.
func (a *analysis) concurrent(x, y Access) bool {
	for _, r1 := range a.rootsOf[x.Fn] {
		for _, r2 := range a.rootsOf[y.Fn] {
			if r1 == r2 {
				if a.rootMult[r1] == escape.MultMany {
					// Two instances of the same thread body are mutually
					// unordered.
					return true
				}
				continue // a single instance orders its own accesses
			}
			if a.spawnSeparated(x, r1, r2) || a.spawnSeparated(y, r2, r1) {
				continue
			}
			if a.phaseSeparated(r1, r2) {
				continue
			}
			if a.condSeparated(x, r1, y, r2) || a.condSeparated(y, r2, x, r1) {
				continue
			}
			return true
		}
	}
	return false
}

// runsOnce reports whether root r's body executes exactly once: a
// mult-one root never invoked as an ordinary function.
func (a *analysis) runsOnce(r ir.FuncID) bool {
	return a.rootMult[r] == escape.MultOne && !a.calledByLive[r]
}

// spawnSeparated reports whether acc (running in root spawner) is ordered
// against every instance of root spawned: each spawn site sits in
// spawner's once-executed body, and every occurrence of acc there is
// either always before the spawn or dominated by a join of its handle.
func (a *analysis) spawnSeparated(acc Access, spawner, spawned ir.FuncID) bool {
	if !a.runsOnce(spawner) {
		return false
	}
	sites := a.spawnsOf[spawned]
	if len(sites) == 0 {
		return false
	}
	cfg := a.cfgs[spawner]
	ps := a.positions(acc, spawner)
	if len(ps) == 0 {
		return false
	}
	for _, s := range sites {
		if s.fn != spawner {
			return false
		}
		for _, p := range ps {
			if !cfg.instrReach(s.instr, p) {
				continue // p can never follow the spawn: always before it
			}
			if s.inLoop || len(s.joins) == 0 {
				return false
			}
			joined := false
			for _, j := range s.joins {
				if cfg.dominates(j, p) {
					joined = true
					break
				}
			}
			if !joined {
				return false
			}
		}
	}
	return true
}

// phaseSeparated reports whether roots r1 and r2 run in disjoint phases:
// one is fully joined before the other is ever spawned, with all spawn
// sites in one once-executed function.
func (a *analysis) phaseSeparated(r1, r2 ir.FuncID) bool {
	return a.rootAfterRoot(r1, r2) || a.rootAfterRoot(r2, r1)
}

func (a *analysis) rootAfterRoot(rEarly, rLate ir.FuncID) bool {
	se, sl := a.spawnsOf[rEarly], a.spawnsOf[rLate]
	if len(se) == 0 || len(sl) == 0 {
		return false
	}
	f0 := se[0].fn
	for _, s := range append(se, sl...) {
		if s.fn != f0 {
			return false
		}
	}
	if a.rootMult[f0] != escape.MultOne || a.calledByLive[f0] {
		return false
	}
	cfg := a.cfgs[f0]
	for _, e := range se {
		if e.inLoop || len(e.joins) == 0 {
			return false
		}
		for _, l := range sl {
			dominated := false
			for _, j := range e.joins {
				if cfg.dominates(j, l.instr) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
	}
	return true
}

// condSeparated reports whether x (in root rs, the signaller) is ordered
// before y (in root rw, the waiter) through a condition variable with a
// single live signal site and a single live wait site.
func (a *analysis) condSeparated(x Access, rs ir.FuncID, y Access, rw ir.FuncID) bool {
	if !a.runsOnce(rs) || !a.runsOnce(rw) {
		return false
	}
	for ci := range a.prog.Conds {
		c := ir.SyncID(ci)
		sigs, waits := a.signals[c], a.waits[c]
		if len(sigs) != 1 || len(waits) != 1 {
			continue
		}
		sg, wt := sigs[0], waits[0]
		if sg.fn != rs || wt.fn != rw {
			continue
		}
		if a.loops[sg.fn][sg.block] || a.loops[wt.fn][wt.block] {
			continue
		}
		cfgS, cfgW := a.cfgs[sg.fn], a.cfgs[wt.fn]
		psx := a.positions(x, sg.fn)
		psy := a.positions(y, wt.fn)
		if len(psx) == 0 || len(psy) == 0 {
			continue
		}
		ok := true
		for _, p := range psx {
			if cfgS.instrReach(sg.instr, p) {
				ok = false // x might execute after the signal
				break
			}
		}
		for _, p := range psy {
			if !ok || !cfgW.dominates(wt.instr, p) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// positions returns the instructions in f at which acc can be "in
// flight": the access itself when it lives in f, otherwise every call in
// f whose callee closure contains acc's function.
func (a *analysis) positions(acc Access, f ir.FuncID) []ir.Instr {
	if acc.Fn == f {
		return []ir.Instr{acc.Instr}
	}
	var ps []ir.Instr
	for _, b := range a.prog.Funcs[f].Blocks {
		for _, in := range b.Instrs {
			if c, ok := in.(*ir.Call); ok && a.callClose[c.Func][acc.Fn] {
				ps = append(ps, in)
			}
		}
	}
	return ps
}
