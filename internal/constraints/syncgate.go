package constraints

import (
	"repro/internal/ir"
	"repro/internal/symexec"
)

// SyncGate tracks mutex ownership and signal availability along a
// schedule prefix, so it can tell whether a lock acquisition or a wake is
// enabled next. It approximates the replay semantics: a wake needs any
// broadcast or an unconsumed signal on its condition, regardless of when
// the wait began (ValidateSchedule stays exact). Memory and other
// synchronization SAPs are always enabled.
type SyncGate struct {
	sys        *System
	lockHeld   map[ir.SyncID]bool
	signals    map[ir.SyncID]int // scheduled signals per cond
	broadcasts map[ir.SyncID]int
	wakes      map[ir.SyncID]int // consumed wakes per cond
}

// NewSyncGate returns a gate over sys with an empty prefix.
func (sys *System) NewSyncGate() *SyncGate {
	return &SyncGate{
		sys:        sys,
		lockHeld:   map[ir.SyncID]bool{},
		signals:    map[ir.SyncID]int{},
		broadcasts: map[ir.SyncID]int{},
		wakes:      map[ir.SyncID]int{},
	}
}

// Reset empties the prefix.
func (g *SyncGate) Reset() {
	clear(g.lockHeld)
	clear(g.signals)
	clear(g.broadcasts)
	clear(g.wakes)
}

// Enabled reports whether SAP r can run after the prefix.
func (g *SyncGate) Enabled(r SAPRef) bool {
	s := g.sys.SAPs[r]
	switch s.Kind {
	case symexec.SAPLock:
		return !g.lockHeld[s.Mutex]
	case symexec.SAPWaitEnd:
		if g.lockHeld[s.Mutex] {
			return false
		}
		return g.broadcasts[s.Cond] > 0 || g.signals[s.Cond] > g.wakes[s.Cond]
	}
	return true
}

// Apply appends r to the prefix.
func (g *SyncGate) Apply(r SAPRef) { g.step(r, 1) }

// Undo removes r, the prefix's last SAP, again.
func (g *SyncGate) Undo(r SAPRef) { g.step(r, -1) }

// step applies r (d = 1) or reverts it (d = -1).
func (g *SyncGate) step(r SAPRef, d int) {
	s := g.sys.SAPs[r]
	switch s.Kind {
	case symexec.SAPLock:
		g.lockHeld[s.Mutex] = d > 0
	case symexec.SAPUnlock, symexec.SAPWaitBegin:
		g.lockHeld[s.Mutex] = d < 0
	case symexec.SAPWaitEnd:
		g.lockHeld[s.Mutex] = d > 0
		g.wakes[s.Cond] += d
	case symexec.SAPSignal:
		g.signals[s.Cond] += d
	case symexec.SAPBroadcast:
		g.broadcasts[s.Cond] += d
	}
}
