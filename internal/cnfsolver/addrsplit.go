package cnfsolver

import (
	"fmt"
	"sort"

	"repro/internal/constraints"
	"repro/internal/sat"
	"repro/internal/symbolic"
	"repro/internal/symexec"
)

// This file is the address-split refinement theory: the piece that makes
// the lazy encoding complete under symbolic addresses (CLAP §5).
//
// The encoder's Frw structure only hard-codes interval constraints for
// definitely-same-address pairs; when an address is symbolic the encoding
// deliberately leaves the aliasing question open. Address-split closes
// the gap after the fact: given a model that already passed the
// transitivity theory, evaluate every symbolic address under the model's
// mapping-implied value assignment. That partitions the memory SAPs into
// concrete alias classes for THIS model, and within each class the usual
// read-from discipline must hold — the chosen write stores to the read's
// cell, no aliasing rival lands between them, and an init-mapped read
// precedes every aliasing write. A violation becomes a lemma over (a) the
// choice literals the address valuation consulted, transitively closed
// over value support — the premise — and (b) the violating choice or the
// order literals that move the rival out of the interval. The premise is
// what makes the split sound: under any other address valuation the
// lemma's premise is false and the clause is inert.
//
// Completeness: a lemma is only ever false in assignments whose induced
// schedule would fail validation (the checks mirror ValidateSchedule's
// memory simulation exactly — see the invariant below), so no feasible
// schedule is excluded. Termination: each round's lemmas are violated by
// the current model, so the SAT solver must change a premise choice, the
// violating choice, or satisfy a fresh order literal, which the next
// transitivity round turns into an oriented edge; the same lemma can
// never be re-derived.
//
// The invariant bought by a clean pass (zero lemmas): replaying the
// extracted order, every read returns exactly the value modelEnv computed
// from the mapping. Induction over schedule positions — a SAP's address
// and value dependencies are same-thread program-order-earlier READS, and
// read→read / read→write program edges are hard under every supported
// memory model (only writes are buffered), so dependencies precede their
// SAP in every extracted order. At each read the checks force the chosen
// write (or init) to be the cell's last writer. This is the exact
// invariant concrete-address systems get from their definitely-same-cell
// constraints, which is why the mapping-level blocking in block() and
// BlockMapping stays sound with symbolic addresses.

// modelEnv resolves the value assignment implied by the current SAT
// model's read→write mapping: a read's value is its chosen candidate's
// value expression evaluated recursively, or the variable's initial value
// for choice 0. Results are memoized per theory check.
type modelEnv struct {
	e    *encoder
	vals map[symbolic.SymID]int64
	// err records the first resolution failure (free read, unset choice),
	// for diagnostics; evaluation surfaces it as an unbound symbol.
	err error
}

// Value implements symbolic.Env.
func (m *modelEnv) Value(id symbolic.SymID) (int64, bool) {
	v, err := m.resolve(id, 0)
	if err != nil {
		if m.err == nil {
			m.err = err
		}
		return 0, false
	}
	return v, true
}

func (m *modelEnv) resolve(id symbolic.SymID, depth int) (int64, error) {
	if v, ok := m.vals[id]; ok {
		return v, nil
	}
	if depth > len(m.e.sys.Reads)+1 {
		return 0, fmt.Errorf("cnfsolver: cyclic value dependency through symbol %d", id)
	}
	ri, ok := m.e.readIdx[id]
	if !ok {
		return 0, fmt.Errorf("cnfsolver: symbol %d is not a read", id)
	}
	info := &m.e.sys.Reads[ri]
	if info.Free {
		return 0, fmt.Errorf("cnfsolver: free read %d in value support", ri)
	}
	k := m.e.currentChoice(ri)
	if k < 0 {
		return 0, fmt.Errorf("cnfsolver: read %d has no choice in the model", ri)
	}
	var val int64
	if k == 0 {
		val = info.Init
	} else {
		w := m.e.sys.SAP(info.Cands[k-1])
		// Pre-resolve the write's dependencies so the EvalInt below only
		// sees memoized symbols (Value cannot thread the recursion depth).
		for _, dep := range symbolic.Syms(w.Val, nil, nil) {
			if _, err := m.resolve(dep, depth+1); err != nil {
				return 0, err
			}
		}
		v, err := symbolic.EvalInt(w.Val, m)
		if err != nil {
			return 0, err
		}
		val = v
	}
	m.vals[id] = val
	return val, nil
}

// addrInfo is one memory SAP's address resolved under the current model:
// the concrete cell it touches and, for symbolic addresses, the symbols
// the valuation consulted (the premise of any lemma about this address).
type addrInfo struct {
	addr int
	ok   bool
	used []symbolic.SymID
}

// positions returns each SAP's position in order, in reused scratch.
func (e *encoder) positions(order []constraints.SAPRef) []int {
	if cap(e.posBuf) < e.n {
		e.posBuf = make([]int, e.n)
	}
	pos := e.posBuf[:e.n]
	for p, ref := range order {
		pos[ref] = p
	}
	return pos
}

// refineAddrSplit checks the model's read-from choices against the alias
// classes induced by its address valuation and queues one lemma per
// violation found. It returns the number of lemmas added and whether some
// violation (or unresolvable address) had to be skipped because no sound
// choice-level premise exists; the caller falls back to blockModel when
// nothing targeted was learned. A (0, false) return certifies the model
// address-consistent: validation and mapping-level blocking may proceed
// exactly as in the concrete-address case.
func (e *encoder) refineAddrSplit(order []constraints.SAPRef) (lemmas int, coarse bool) {
	env := &modelEnv{e: e, vals: make(map[symbolic.SymID]int64)}
	if cap(e.addrBuf) < e.n {
		e.addrBuf = make([]addrInfo, e.n)
	}
	addrs := e.addrBuf[:e.n]
	for i := range addrs {
		addrs[i] = addrInfo{}
	}
	for i := 0; i < e.n; i++ {
		sap := e.sys.SAP(constraints.SAPRef(i))
		if !sap.Kind.IsMemory() {
			continue
		}
		if sap.Addr != symexec.NoAddr {
			addrs[i] = addrInfo{addr: sap.Addr, ok: true}
			continue
		}
		rec := &symbolic.RecordingEnv{Base: env}
		idx, err := symbolic.EvalInt(sap.AddrIndex, rec)
		used := make([]symbolic.SymID, 0, len(rec.Used))
		for id := range rec.Used {
			used = append(used, id)
		}
		// Sorted premise symbols keep lemma literal order — and thus the
		// whole CNF evolution — deterministic run to run.
		sort.Slice(used, func(a, b int) bool { return used[a] < used[b] })
		if err != nil {
			coarse = true
			continue
		}
		a, ok := e.sys.Layout.Addr(e.sys.An.Prog, sap.Var, idx)
		if !ok {
			// The valuation drives the index out of bounds. Validation
			// rejects any schedule realizing these choices, so forbid the
			// consulted support outright.
			if lits, sOK := e.suppLits(used, map[int]bool{}, nil); sOK {
				e.lemma(lits...)
				lemmas++
			} else {
				coarse = true
			}
			continue
		}
		addrs[i] = addrInfo{addr: a, ok: true, used: used}
	}

	pos := e.positions(order)
	// premise builds a lemma: the negated transitive support of the given
	// address valuations, plus the given consequence literals.
	premise := func(ids []symbolic.SymID, extra ...sat.Lit) bool {
		lits, ok := e.suppLits(ids, map[int]bool{}, nil)
		if !ok {
			return false
		}
		e.lemma(append(lits, extra...)...)
		lemmas++
		return true
	}
	for ri := range e.sys.Reads {
		info := &e.sys.Reads[ri]
		if info.Free {
			continue
		}
		k := e.currentChoice(ri)
		if k < 0 {
			coarse = true
			continue
		}
		r := int(info.Read)
		ra := addrs[r]
		if !ra.ok {
			continue // unresolved: handled by its own lemma (or coarse) above
		}
		w := -1
		if k > 0 {
			w = int(info.Cands[k-1])
			wa := addrs[w]
			if !wa.ok {
				continue
			}
			if ra.addr != wa.addr {
				// Alias mismatch: under this valuation the chosen write
				// stores to a different cell than the read loads from.
				ids := append(append([]symbolic.SymID{}, ra.used...), wa.used...)
				if !premise(ids, e.choiceLit[ri][k].Not()) {
					coarse = true
				}
				continue
			}
		}
		for _, w2ref := range info.AllRivals() {
			w2 := int(w2ref)
			if k > 0 && w2 == w {
				continue
			}
			if same, _ := symexec.SameCell(e.sys.SAP(info.Read), e.sys.SAP(w2ref)); same {
				continue // the base encoding already pins these intervals
			}
			w2a := addrs[w2]
			if !w2a.ok || w2a.addr != ra.addr {
				continue
			}
			ids := append(append([]symbolic.SymID{}, ra.used...), w2a.used...)
			if k == 0 {
				// Init violation: an aliasing write precedes the read that
				// claims to observe the initial value.
				if pos[w2] < pos[r] {
					if !premise(ids, e.choiceLit[ri][0].Not(), e.lit(r, w2)) {
						coarse = true
					}
				}
			} else if pos[w] < pos[w2] && pos[w2] < pos[r] {
				// Interval violation: an aliasing rival landed between the
				// chosen write and the read.
				if !premise(ids, e.choiceLit[ri][k].Not(), e.lit(w2, w), e.lit(r, w2)) {
					coarse = true
				}
			}
		}
	}
	return lemmas, coarse
}
