package explain

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/constraints"
	"repro/internal/symexec"
)

// Flip kinds, from most to least diagnostic.
const (
	// FlipRW is a read/write or write/write pair on the same variable
	// whose order the solver reversed.
	FlipRW = "memory"
	// FlipLock is a pair of lock regions on the same mutex whose order the
	// solver reversed.
	FlipLock = "lock"
	// FlipSync is a pair of synchronization operations whose scheduling
	// order the solver reversed. The replayer enforces the solved schedule
	// as a total order over sync operations, so these are the scheduling
	// decisions the solver actually changed, even when no data conflict
	// links the two operations.
	FlipSync = "sync"
)

// flipRank orders flip kinds from most to least diagnostic.
func flipRank(kind string) int {
	switch kind {
	case FlipRW:
		return 0
	case FlipLock:
		return 1
	default:
		return 2
	}
}

// Flip is one conflicting SAP pair whose relative order differs between
// the recorded interleaving and the solved schedule: First ran before
// Second in the recorded run, but the solver scheduled Second first.
type Flip struct {
	Kind          string
	First, Second constraints.SAPRef
}

// Remap is a read whose last writer changed between the recorded
// interleaving and the solved schedule — the value-level consequence of
// the flips, the paper's actual race. A write of NoRef means the read
// observed the variable's initial value.
type Remap struct {
	Read                       constraints.SAPRef
	RecordedWrite, SolvedWrite constraints.SAPRef
	// SolvedValue is the value the read observes under the solved
	// schedule, when the witness binds it.
	SolvedValue   int64
	SolvedValueOK bool
}

// NoRef marks "initial value" in a Remap.
const NoRef constraints.SAPRef = -1

// maxFlips caps the enumerated flip list; the count of further flips is
// still reported. The stress benchmarks have thousands of conflicting
// pairs and a verdict listing them all explains nothing.
const maxFlips = 200

// maxRacePairs caps the racing-pair list shown by the zero-flip verdict.
const maxRacePairs = 10

// Diff is the schedule-diff report.
type Diff struct {
	// Flips whose order the solver reversed, memory pairs first, both
	// sorted by solved-schedule position of the earlier endpoint.
	Flips []Flip
	// TotalFlips counts all reversed conflicting pairs, including those
	// beyond the maxFlips cap.
	TotalFlips int
	// Remaps are reads whose last writer changed.
	Remaps []Remap
	// ConflictingPairs counts all cross-thread conflicting pairs with
	// known recorded order (the diff's denominator).
	ConflictingPairs int
	// racePairs keeps the first few memory conflicting pairs (flipped or
	// not) so the zero-flip verdict can still name the race candidates.
	racePairs []Flip
	// Pivots holds reversal-probe verdicts for the racing pairs, filled
	// by ProbeRacePairs for the zero-flip verdict.
	Pivots []Pivot

	sys *constraints.System
}

// DiffSchedules compares the solved schedule against the recorded
// interleaving. recordedTimes comes from AlignRecorded (NoTime entries —
// demoted accesses — are skipped: they are proven race-free, so their
// order cannot be the trigger). The witness, when given, adds the
// last-writer remaps.
func DiffSchedules(sys *constraints.System, recordedTimes []int64, order []constraints.SAPRef, w *constraints.Witness) *Diff {
	d := &Diff{sys: sys}
	solvedPos := make([]int, len(sys.SAPs))
	for i := range solvedPos {
		solvedPos[i] = -1
	}
	for i, r := range order {
		solvedPos[r] = i
	}
	known := func(r constraints.SAPRef) bool {
		return recordedTimes[r] != NoTime && solvedPos[r] >= 0
	}
	// flipped records pair (a, b) with a recorded before b; returns the
	// flip when the solver reversed them.
	addPair := func(kind string, a, b constraints.SAPRef) {
		if recordedTimes[a] > recordedTimes[b] {
			a, b = b, a
		}
		d.ConflictingPairs++
		if kind == FlipRW && len(d.racePairs) < maxRacePairs {
			d.racePairs = append(d.racePairs, Flip{Kind: kind, First: a, Second: b})
		}
		if solvedPos[a] > solvedPos[b] {
			d.TotalFlips++
			if len(d.Flips) < maxFlips {
				d.Flips = append(d.Flips, Flip{Kind: kind, First: a, Second: b})
			}
		}
	}

	// Memory pairs: cross-thread, same variable, possibly same address, at
	// least one write.
	byVar := map[int][]constraints.SAPRef{}
	for i, s := range sys.SAPs {
		if s.Kind.IsMemory() && known(constraints.SAPRef(i)) {
			byVar[int(s.Var)] = append(byVar[int(s.Var)], constraints.SAPRef(i))
		}
	}
	vars := make([]int, 0, len(byVar))
	for v := range byVar {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	for _, v := range vars {
		refs := byVar[v]
		for i := 0; i < len(refs); i++ {
			for j := i + 1; j < len(refs); j++ {
				a, b := sys.SAP(refs[i]), sys.SAP(refs[j])
				if a.Thread == b.Thread {
					continue
				}
				if a.Kind != symexec.SAPWrite && b.Kind != symexec.SAPWrite {
					continue
				}
				if _, maybe := symexec.SameCell(a, b); !maybe {
					continue
				}
				addPair(FlipRW, refs[i], refs[j])
			}
		}
	}

	// Lock-region pairs: same mutex, different threads, compared by their
	// acquire SAPs.
	for _, m := range sys.RegionMutexes() {
		regs := sys.Regions[m]
		for i := 0; i < len(regs); i++ {
			for j := i + 1; j < len(regs); j++ {
				if regs[i].Thread == regs[j].Thread {
					continue
				}
				if !known(regs[i].Lock) || !known(regs[j].Lock) {
					continue
				}
				addPair(FlipLock, regs[i].Lock, regs[j].Lock)
			}
		}
	}

	// Synchronization pairs: any two sync operations on different threads.
	// The deterministic replayer drives the program by the solved
	// schedule's synchronization subsequence, so a reversed sync pair is a
	// scheduling decision the solver changed even without a data conflict.
	// Lock/lock pairs on the same mutex are already counted as lock-region
	// pairs above and are skipped here.
	var syncs []constraints.SAPRef
	for i, s := range sys.SAPs {
		if s.Kind.IsSync() && known(constraints.SAPRef(i)) {
			syncs = append(syncs, constraints.SAPRef(i))
		}
	}
	for i := 0; i < len(syncs); i++ {
		for j := i + 1; j < len(syncs); j++ {
			a, b := sys.SAP(syncs[i]), sys.SAP(syncs[j])
			if a.Thread == b.Thread {
				continue
			}
			if a.Kind == symexec.SAPLock && b.Kind == symexec.SAPLock && a.Mutex == b.Mutex {
				continue
			}
			addPair(FlipSync, syncs[i], syncs[j])
		}
	}

	sort.SliceStable(d.Flips, func(i, j int) bool {
		fi, fj := d.Flips[i], d.Flips[j]
		if flipRank(fi.Kind) != flipRank(fj.Kind) {
			return flipRank(fi.Kind) < flipRank(fj.Kind)
		}
		pi := min(solvedPos[fi.First], solvedPos[fi.Second])
		pj := min(solvedPos[fj.First], solvedPos[fj.Second])
		if pi != pj {
			return pi < pj
		}
		return fi.First < fj.First
	})

	if w != nil {
		d.buildRemaps(recordedTimes, w)
	}
	return d
}

// buildRemaps derives each read's recorded last writer (latest
// definitely-same-address write before it in recorded time) and compares
// it with the witness mapping.
func (d *Diff) buildRemaps(recordedTimes []int64, w *constraints.Witness) {
	sys := d.sys
	for _, ri := range sys.Reads {
		if recordedTimes[ri.Read] == NoTime {
			continue
		}
		solved, ok := w.MappedWrite[ri.Read]
		if !ok {
			continue
		}
		recorded := NoRef
		var recordedAt int64 = -1
		for _, wr := range ri.AllRivals() {
			if recordedTimes[wr] == NoTime {
				continue
			}
			a, b := sys.SAP(wr), sys.SAP(ri.Read)
			if def, _ := symexec.SameCell(a, b); !def {
				continue
			}
			if recordedTimes[wr] < recordedTimes[ri.Read] && recordedTimes[wr] > recordedAt {
				recorded, recordedAt = wr, recordedTimes[wr]
			}
		}
		if recorded == solved {
			continue
		}
		rm := Remap{Read: ri.Read, RecordedWrite: recorded, SolvedWrite: solved}
		if s := sys.SAP(ri.Read); s.Sym != nil {
			if v, ok := w.Env[s.Sym.ID]; ok {
				rm.SolvedValue, rm.SolvedValueOK = v, true
			}
		}
		d.Remaps = append(d.Remaps, rm)
	}
}

// sapAt renders a SAP identity with its source position.
func sapAt(sys *constraints.System, r constraints.SAPRef) string {
	s := sys.SAP(r)
	id := fmt.Sprintf("t%d#%d %s", s.Thread, s.Seq, s.Kind)
	switch {
	case s.Kind.IsMemory():
		id += fmt.Sprintf(" g%d@%d", s.Var, s.Addr)
	case s.Kind == symexec.SAPLock || s.Kind == symexec.SAPUnlock:
		id += fmt.Sprintf(" m%d", s.Mutex)
	}
	if s.Pos.Line != 0 {
		id += " (line " + s.Pos.String() + ")"
	}
	return id
}

// Render writes the human-readable race-flip report.
func (d *Diff) Render(w io.Writer) {
	fmt.Fprintf(w, "schedule diff: %d of %d conflicting SAP pairs flipped relative to the recorded order\n",
		d.TotalFlips, d.ConflictingPairs)
	if d.TotalFlips == 0 {
		fmt.Fprintf(w, "  the solver preserved the recorded order of every conflicting pair:\n")
		fmt.Fprintf(w, "  the recorded interleaving itself triggers the failure.\n")
		if len(d.racePairs) > 0 {
			fmt.Fprintf(w, "racing pairs (in recorded order):\n")
			for i, f := range d.racePairs {
				fmt.Fprintf(w, "  [%s] %s  ran before  %s\n",
					f.Kind, sapAt(d.sys, f.First), sapAt(d.sys, f.Second))
				if i < len(d.Pivots) && d.Pivots[i].Known {
					if d.Pivots[i].Essential {
						fmt.Fprintf(w, "    reversing this pair admits no failing schedule — its recorded order is the failure's trigger\n")
					} else {
						fmt.Fprintf(w, "    a schedule reversing this pair may still fail (probe inconclusive)\n")
					}
				}
			}
		}
	}
	for _, f := range d.Flips {
		fmt.Fprintf(w, "  [%s] %s  ran before  %s  — solver reversed them\n",
			f.Kind, sapAt(d.sys, f.First), sapAt(d.sys, f.Second))
	}
	if d.TotalFlips > len(d.Flips) {
		fmt.Fprintf(w, "  … and %d more flipped pairs\n", d.TotalFlips-len(d.Flips))
	}
	if len(d.Remaps) > 0 {
		fmt.Fprintf(w, "reads whose last writer changed (the race made visible):\n")
		for _, rm := range d.Remaps {
			from := "initial value"
			if rm.RecordedWrite != NoRef {
				from = sapAt(d.sys, rm.RecordedWrite)
			}
			to := "initial value"
			if rm.SolvedWrite != NoRef {
				to = sapAt(d.sys, rm.SolvedWrite)
			}
			fmt.Fprintf(w, "  %s: recorded writer %s → solved writer %s", sapAt(d.sys, rm.Read), from, to)
			if rm.SolvedValueOK {
				fmt.Fprintf(w, " (observes %d)", rm.SolvedValue)
			}
			fmt.Fprintln(w)
		}
	}
}
