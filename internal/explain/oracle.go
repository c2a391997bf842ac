package explain

import (
	"repro/internal/constraints"
	"repro/internal/ir"
	"repro/internal/solver"
	"repro/internal/symbolic"
	"repro/internal/symexec"
)

// The deletion oracle behind the minimal-unsat-subset shrinker.
//
// The production solvers cannot play this role: their completion paths
// re-validate candidate schedules against the FULL constraint semantics
// (constraints.ValidateSchedule simulates every lock, every memory cell
// and every path condition regardless of what the caller "dropped"), so
// deleting a constraint group would not actually weaken what they check —
// and delete-based shrinking is only sound over a monotone oracle: any
// formula a subset rejects, the subset's supersets must also reject.
//
// oracle is instead a small backtracking satisfiability check that
// enforces exactly the retained groups and nothing else:
//
//   - retained hard-edge groups (Fmo, Fso spawn/order) feed an order
//     graph; a cycle means unsat,
//   - retained wait groups choose a waking signal (plain signals wake at
//     most one retained wait),
//   - retained lock groups order each cross-thread region pair,
//   - retained read groups (Frw) choose a last writer (or the initial
//     value) with the interval side-constraints over
//     definitely-same-address rivals,
//   - retained Fpath/Fbug conjuncts are evaluated at the leaves under the
//     decided read values; a conjunct referencing a symbol no retained
//     group binds (a dropped read's value) is SKIPPED.
//
// Skipping unbindable conjuncts and unconstrained maybe-same-address
// rivals over-approximates satisfiability, which keeps the shrinker
// sound: oracle-unsat implies genuinely conflicting retained groups. The
// rival placement uses a two-variant approximation (all free rivals
// before the chosen write, or all after the read), so "minimal" is
// relative to this procedure; see
// DESIGN.md for the full argument. A budget bounds the search; exhaustion
// reports unknown and the shrinker then conservatively keeps the group.

// verdict is the oracle's three-valued answer.
type verdict int8

const (
	vUnsat verdict = iota
	vSat
	vUnknown // budget exhausted
)

// oracle is one satisfiability check over a retained subset of groups.
type oracle struct {
	sys    *constraints.System
	budget int64

	// Retained structure, derived from the kept groups.
	lockMutexes []ir.SyncID
	waitIdx     []int
	readIdx     []int
	conj        []symbolic.Expr

	g *solver.OrderGraph

	env        symbolic.MapEnv
	mappedTo   map[constraints.SAPRef]constraints.SAPRef // read -> write (NoRef = init)
	usedSignal map[constraints.SAPRef]bool

	decs []oDecision
}

type oDecision struct {
	kind   int // 0 wait, 1 read, 2 lock pair
	idx    int // wait index / read index
	ra, rb constraints.Region
}

// check runs the satisfiability check for the retained groups.
func check(sys *constraints.System, groups []constraints.Group, keep []bool, budget int64) verdict {
	o := &oracle{
		sys: sys, budget: budget,
		g:          solver.NewOrderGraph(len(sys.SAPs)),
		env:        symbolic.MapEnv{},
		mappedTo:   map[constraints.SAPRef]constraints.SAPRef{},
		usedSignal: map[constraints.SAPRef]bool{},
	}
	for i, grp := range groups {
		if !keep[i] {
			continue
		}
		switch grp.Kind {
		case constraints.GroupMO, constraints.GroupSpawn, constraints.GroupOrder:
			for _, e := range grp.Edges {
				if !o.g.AddEdge(e[0], e[1]) {
					return vUnsat // retained hard edges alone are cyclic
				}
			}
		case constraints.GroupLock:
			o.lockMutexes = append(o.lockMutexes, grp.Mutex)
		case constraints.GroupWait:
			o.waitIdx = append(o.waitIdx, grp.Index)
		case constraints.GroupRW:
			o.readIdx = append(o.readIdx, grp.Index)
		case constraints.GroupPath, constraints.GroupBug:
			o.conj = append(o.conj, grp.Exprs...)
		}
	}

	// Pre-pass: a retained conjunct that already evaluates under the
	// empty environment (no symbols, or constant-folded) decides the
	// check without any search — the common shape of a contradictory
	// Fbug, and the reason dropping unrelated groups stays cheap.
	for _, c := range o.conj {
		if v, err := symbolic.EvalBool(c, o.env); err == nil && !v {
			return vUnsat
		}
	}

	// Decision agenda: waits, then reads, then lock-region pairs —
	// mirroring the production solver's order (wait mappings prune the
	// most; lock pairs mostly follow from the rest).
	for _, wi := range o.waitIdx {
		o.decs = append(o.decs, oDecision{kind: 0, idx: wi})
	}
	for _, ri := range o.readIdx {
		o.decs = append(o.decs, oDecision{kind: 1, idx: ri})
	}
	for _, m := range o.lockMutexes {
		regs := sys.Regions[m]
		for i := 0; i < len(regs); i++ {
			for j := i + 1; j < len(regs); j++ {
				if regs[i].Thread == regs[j].Thread {
					continue
				}
				o.decs = append(o.decs, oDecision{kind: 2, ra: regs[i], rb: regs[j]})
			}
		}
	}
	return o.decide(0)
}

// decide assigns decision i and recurses; three-valued.
func (o *oracle) decide(i int) verdict {
	o.budget--
	if o.budget <= 0 {
		return vUnknown
	}
	if i == len(o.decs) {
		return o.leaf()
	}
	d := o.decs[i]
	unknown := false
	try := func(f func() bool) verdict {
		mark := o.g.Mark()
		if f() {
			switch v := o.decide(i + 1); v {
			case vSat:
				return vSat
			case vUnknown:
				unknown = true
			}
		}
		o.g.UndoTo(mark)
		return vUnsat
	}
	switch d.kind {
	case 0: // wait: choose the waking signal
		wi := o.sys.Waits[d.idx]
		for _, cand := range wi.Cands {
			cand := cand
			if o.usedSignal[cand] {
				continue
			}
			plain := o.sys.SAP(cand).Kind == symexec.SAPSignal
			if plain {
				o.usedSignal[cand] = true
			}
			v := try(func() bool {
				return o.g.AddEdge(wi.Begin, cand) && o.g.AddEdge(cand, wi.End)
			})
			if plain {
				delete(o.usedSignal, cand)
			}
			if v == vSat {
				return vSat
			}
		}
	case 1: // read: choose the last writer (or the initial value)
		ri := o.sys.Reads[d.idx]
		r := ri.Read
		rs := o.sys.SAP(r)
		if !ri.NoInit {
			v := try(func() bool {
				// Initial value: every definitely-same-address rival is
				// after the read.
				for _, wr := range ri.AllRivals() {
					if same, _ := symexec.SameCell(o.sys.SAP(wr), rs); same && !o.g.AddEdge(r, wr) {
						return false
					}
				}
				o.bindRead(r, NoRef, ri.Init)
				return true
			})
			o.unbindRead(r, rs)
			if v == vSat {
				return vSat
			}
		}
		for _, w := range ri.Cands {
			w := w
			ws := o.sys.SAP(w)
			if _, maybe := symexec.SameCell(rs, ws); !maybe {
				continue
			}
			for variant := 0; variant < 2; variant++ {
				variant := variant
				v := try(func() bool {
					if !o.g.AddEdge(w, r) {
						return false
					}
					for _, rv := range ri.AllRivals() {
						if same, _ := symexec.SameCell(o.sys.SAP(rv), rs); rv == w || !same {
							continue
						}
						var ok bool
						if variant == 0 {
							ok = o.g.AddEdge(rv, w) // rival before the writer
						} else {
							ok = o.g.AddEdge(r, rv) // rival after the read
						}
						if !ok {
							return false
						}
					}
					o.bindRead(r, w, 0)
					return true
				})
				o.unbindRead(r, rs)
				if v == vSat {
					return vSat
				}
			}
		}
	case 2: // lock-region pair: one region entirely before the other
		a, b := d.ra, d.rb
		if a.HasUnlock {
			if v := try(func() bool { return o.g.AddEdge(a.Unlock, b.Lock) }); v == vSat {
				return vSat
			}
		}
		if b.HasUnlock {
			if v := try(func() bool { return o.g.AddEdge(b.Unlock, a.Lock) }); v == vSat {
				return vSat
			}
		}
		if !a.HasUnlock && !b.HasUnlock {
			// Two never-released regions on one mutex cannot both exist.
			return vUnsat
		}
	}
	if unknown {
		return vUnknown
	}
	return vUnsat
}

// bindRead records a read's mapping; init-value mappings bind the symbol
// immediately, write mappings resolve at the leaf.
func (o *oracle) bindRead(r, w constraints.SAPRef, initVal int64) {
	o.mappedTo[r] = w
	if w == NoRef {
		if s := o.sys.SAP(r); s.Sym != nil {
			o.env[s.Sym.ID] = initVal
		}
	}
}

func (o *oracle) unbindRead(r constraints.SAPRef, rs *symexec.SAP) {
	delete(o.mappedTo, r)
	if rs.Sym != nil {
		delete(o.env, rs.Sym.ID)
	}
}

// leaf evaluates the retained conjuncts under the decided read values.
func (o *oracle) leaf() verdict {
	// Fixpoint-resolve write-mapped reads: a write's value expression may
	// reference other reads' symbols, so iterate until no progress. The
	// bindings added here are leaf-local and removed on the way out
	// (init-value bindings stay owned by bindRead/unbindRead).
	var added []symbolic.SymID
	for {
		progress := false
		for r, w := range o.mappedTo {
			if w == NoRef {
				continue
			}
			s := o.sys.SAP(r)
			if s.Sym == nil {
				continue
			}
			if _, ok := o.env[s.Sym.ID]; ok {
				continue
			}
			v, err := symbolic.EvalInt(o.sys.SAP(w).Val, o.env)
			if err != nil {
				continue // depends on a still-unresolved or dropped read
			}
			o.env[s.Sym.ID] = v
			added = append(added, s.Sym.ID)
			progress = true
		}
		if !progress {
			break
		}
	}
	defer func() {
		for _, id := range added {
			delete(o.env, id)
		}
	}()
	for _, c := range o.conj {
		o.budget--
		if o.budget <= 0 {
			return vUnknown
		}
		v, err := symbolic.EvalBool(c, o.env)
		if err != nil {
			continue // references a value no retained group determines
		}
		if !v {
			return vUnsat
		}
	}
	return vSat
}
