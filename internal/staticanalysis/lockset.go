package staticanalysis

import (
	"repro/internal/escape"
	"repro/internal/ir"
)

// The lockset pass runs two dataflow analyses over every function:
//
//   - must-held (intersection meet): which mutexes are provably held at a
//     program point on every path. This feeds race suppression, the
//     demotion verdict and the per-SAP MustLocks stamp.
//   - may-held (union meet): which mutexes might be held. This feeds the
//     lock-order graph.
//
// Both use the same per-mutex transfer functions (lock sets the bit,
// unlock clears it, everything else is the identity), so a function's
// effect on any entry set E is exactly (E ∩ exitTop) ∪ exitBot, where
// exitTop/exitBot are the exit sets for entry = all-locks / no-locks.
// That pair is the interprocedural summary; a call site applies it
// directly. Summaries start pessimistic (a call releases everything it
// might and acquires nothing it must) and improve monotonically to a
// fixpoint, which saturates call-graph recursion conservatively — the
// lockset analogue of escape's multiplicity saturation.
//
// wait(c, m) releases m while blocked but has reacquired it by the time
// the instruction completes, so it is the identity for both analyses:
// every instruction after it still holds m, and the instantaneous
// mutual-exclusion claims the race pass makes remain valid because the
// waiting thread performs no accesses while m is released.

// locksets computes summaries, entry sets, and the final per-instruction
// must-held map (a.res.Must) and may-held map (a.mayAt).
func (a *analysis) locksets() {
	prog := a.prog
	n := len(prog.Funcs)
	top := ir.AllLocks(prog)

	// Phase 1: summary fixpoint. Summaries depend only on each other.
	sumTopM := make([]ir.LockSet, n) // must, entry = top
	sumBotM := make([]ir.LockSet, n) // must, entry = none
	sumTopY := make([]ir.LockSet, n) // may, entry = top
	sumBotY := make([]ir.LockSet, n) // may, entry = none
	for i := range sumTopY {
		sumTopY[i], sumBotY[i] = top, top
	}
	for changed := true; changed; {
		changed = false
		for fi, fn := range prog.Funcs {
			rT := a.flow(fn, top, false, sumTopM, sumBotM, nil, false)
			rB := a.flow(fn, 0, false, sumTopM, sumBotM, nil, false)
			if rT != sumTopM[fi] || rB != sumBotM[fi] {
				sumTopM[fi], sumBotM[fi] = rT, rB
				changed = true
			}
			yT := a.flow(fn, top, true, sumTopY, sumBotY, nil, false)
			yB := a.flow(fn, 0, true, sumTopY, sumBotY, nil, false)
			if yT != sumTopY[fi] || yB != sumBotY[fi] {
				sumTopY[fi], sumBotY[fi] = yT, yB
				changed = true
			}
		}
	}

	// Phase 2: entry-set fixpoint with the summaries fixed. A root
	// (main or a spawned function) starts with no locks; any other live
	// function's must entry is the intersection over its live call
	// sites, and its may entry the union. Non-root must entries start
	// optimistic (top) and only shrink, so the converged greatest
	// fixpoint under-approximates every real call's held set.
	entryM := make([]ir.LockSet, n)
	entryY := make([]ir.LockSet, n)
	for fi := range prog.Funcs {
		if a.rootMult[fi] == escape.MultNone {
			entryM[fi] = top
		}
	}
	// The call-site states of the latest pass over each function. A
	// function's reachable blocks do not depend on its entry set, so each
	// pass overwrites every entry the previous one wrote.
	callM := map[ir.Instr]ir.LockSet{}
	callY := map[ir.Instr]ir.LockSet{}
	for changed := true; changed; {
		changed = false
		accM := make([]ir.LockSet, n)
		accY := make([]ir.LockSet, n)
		seen := make([]bool, n)
		for fi, fn := range prog.Funcs {
			if len(a.rootsOf[fi]) == 0 {
				continue // dead functions never call anyone
			}
			a.flow(fn, entryM[fi], false, sumTopM, sumBotM, callM, true)
			a.flow(fn, entryY[fi], true, sumTopY, sumBotY, callY, true)
			for _, b := range fn.Blocks {
				for _, in := range b.Instrs {
					c, ok := in.(*ir.Call)
					if !ok {
						continue
					}
					if seen[c.Func] {
						accM[c.Func] = accM[c.Func].Inter(callM[in])
					} else {
						accM[c.Func] = callM[in]
						seen[c.Func] = true
					}
					accY[c.Func] = accY[c.Func].Union(callY[in])
				}
			}
		}
		for fi := range prog.Funcs {
			if a.rootMult[fi] != escape.MultNone {
				continue // roots are pinned to the empty entry set
			}
			newM, newY := entryM[fi], entryY[fi]
			if seen[fi] {
				newM = accM[fi]
			}
			newY = accY[fi]
			if newM != entryM[fi] || newY != entryY[fi] {
				entryM[fi], entryY[fi] = newM, newY
				changed = true
			}
		}
	}

	// Phase 3: record the converged per-instruction states.
	a.mayAt = map[ir.Instr]ir.LockSet{}
	for fi, fn := range prog.Funcs {
		if len(a.rootsOf[fi]) == 0 {
			continue // dead code keeps the zero (empty) lockset
		}
		a.flow(fn, entryM[fi], false, sumTopM, sumBotM, a.res.Must, false)
		a.flow(fn, entryY[fi], true, sumTopY, sumBotY, a.mayAt, false)
	}
}

// flow runs one intraprocedural pass over fn with the given entry set and
// returns the exit set. may selects the meet: union (may-held) or
// intersection (must-held). A non-nil at receives the state immediately
// before each reachable instruction, or before each call when callsOnly
// is set; a block's last visit writes its converged states.
func (a *analysis) flow(fn *ir.Func, entry ir.LockSet, may bool, sumTop, sumBot []ir.LockSet, at map[ir.Instr]ir.LockSet, callsOnly bool) ir.LockSet {
	nb := len(fn.Blocks)
	in := make([]ir.LockSet, nb)
	seen := make([]bool, nb)
	in[fn.Entry.ID] = entry
	seen[fn.Entry.ID] = true
	work := []*ir.Block{fn.Entry}
	exitSeen := false
	var exit ir.LockSet
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		cur := in[b.ID]
		for _, instr := range b.Instrs {
			if at != nil {
				if _, isCall := instr.(*ir.Call); isCall || !callsOnly {
					at[instr] = cur
				}
			}
			cur = transfer(cur, instr, sumTop, sumBot)
		}
		if _, ok := b.Term.(*ir.Return); ok {
			if !exitSeen {
				exit, exitSeen = cur, true
			} else if may {
				exit = exit.Union(cur)
			} else {
				exit = exit.Inter(cur)
			}
		}
		for _, s := range b.Succs() {
			nv := cur
			if seen[s.ID] {
				if may {
					nv = in[s.ID].Union(cur)
				} else {
					nv = in[s.ID].Inter(cur)
				}
				if nv == in[s.ID] {
					continue
				}
			}
			in[s.ID] = nv
			seen[s.ID] = true
			work = append(work, s)
		}
	}
	if !exitSeen && !may {
		// A function that never returns constrains no caller: its must
		// exit is vacuously everything.
		exit = ir.AllLocks(a.prog)
	}
	return exit
}

// transfer applies one instruction's effect to a lockset. It is shared by
// the must and may analyses; only the meet differs.
func transfer(cur ir.LockSet, in ir.Instr, sumTop, sumBot []ir.LockSet) ir.LockSet {
	switch x := in.(type) {
	case *ir.SyncOp:
		switch x.Kind {
		case ir.BuiltinLock:
			return cur.With(x.Obj)
		case ir.BuiltinUnlock:
			return cur.Without(x.Obj)
		}
	case *ir.Call:
		return cur.Inter(sumTop[x.Func]).Union(sumBot[x.Func])
	}
	return cur
}
