package schedule

import (
	"slices"

	"repro/internal/constraints"
)

// EnumerateBound is the highest preemption bound Enumerate tries.
const EnumerateBound = 3

// Per-bound caps of Enumerate: at low bounds the candidate space is small
// and enumeration decides a bound exactly; past these caps it gives up.
const (
	enumSchedules = 40_000
	enumCSPSets   = 200_000
	enumWalkNodes = 5_000_000
)

// Enumerate is preemption-bounded generate-and-validate (§4.3) on one
// goroutine. For the bounds 0, 1, …, EnumerateBound in turn it validates
// every candidate with that many preemptions against the full system and
// returns the first whose witness stays within the bound. floor counts
// the leading bounds whose enumeration ran to the end without one: no
// schedule has fewer than floor preemptions, so a schedule found at
// bound floor is minimal. A bound whose enumeration hits a cap ends the
// search there, as does stop (nil = never), which is polled before each
// bound, every PollStride walk nodes and every 64 validations.
func Enumerate(sys *constraints.System, stop func() bool) (order []constraints.SAPRef, w *constraints.Witness, floor int) {
	stopped := false
	halt := func() bool {
		stopped = stopped || (stop != nil && stop())
		return stopped
	}
	gen := NewGenerator(sys, Options{
		MaxSchedules:     enumSchedules,
		RespectHardEdges: true,
		MaxCSPSets:       enumCSPSets,
		MaxWalkNodes:     enumWalkNodes,
		Stop:             halt,
	})
	validations := 0
	for bound := 0; bound <= EnumerateBound && !halt(); bound++ {
		res := gen.Generate(bound, func(cand []constraints.SAPRef, _ int) bool {
			validations++
			if validations&63 == 0 && halt() {
				return false
			}
			v, err := sys.ValidateSchedule(cand)
			if err != nil || v.Preemptions > bound {
				return true
			}
			order, w = slices.Clone(cand), v
			return false
		})
		if order != nil || res.Capped || stopped {
			break
		}
		floor++
	}
	return order, w, floor
}
