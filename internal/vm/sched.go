package vm

import "math/rand"

// Scheduler decides which enabled action runs next.
type Scheduler interface {
	// Pick receives the deterministic action list produced by
	// EnabledActions and returns the index of the chosen action. The list
	// is the VM's own buffer, valid only until the next step: a scheduler
	// that keeps actions must copy them.
	Pick(v *VM, actions []Action) int
}

// RandomScheduler drives the program through a seeded pseudo-random
// interleaving. It is how the record phase triggers bugs: different seeds
// explore different interleavings, playing the role of the paper's "insert
// timing delays at key places and run many times".
//
// Chaos biases toward switching: with Chaos 0 the scheduler keeps running
// the same thread while possible (few context switches); with Chaos 100 it
// picks uniformly at every visible event. DrainBias (0–100, TSO/PSO only)
// is the probability of preferring a drain action when one exists, letting
// stores linger in buffers long enough for relaxed-memory bugs to appear.
type RandomScheduler struct {
	Rng       *rand.Rand
	Chaos     int
	DrainBias int
	last      ThreadID
	hasLast   bool
}

// The moderate switching NewRandomScheduler and Reseed start from.
const (
	defaultChaos     = 40
	defaultDrainBias = 30
)

// NewRandomScheduler returns a seeded random scheduler with moderate
// switching.
func NewRandomScheduler(seed int64) *RandomScheduler {
	return &RandomScheduler{Rng: rand.New(rand.NewSource(seed)), Chaos: defaultChaos, DrainBias: defaultDrainBias}
}

// Reseed puts s back in the state NewRandomScheduler(seed) returns, reusing
// its generator: (*rand.Rand).Seed restarts the same stream a fresh
// rand.NewSource(seed) gives. A bug hunt re-seeds one scheduler per seed.
func (s *RandomScheduler) Reseed(seed int64) {
	s.Rng.Seed(seed)
	*s = RandomScheduler{Rng: s.Rng, Chaos: defaultChaos, DrainBias: defaultDrainBias}
}

// Pick implements Scheduler.
func (s *RandomScheduler) Pick(v *VM, actions []Action) int {
	drains := 0
	for _, a := range actions {
		if a.Kind == ActDrain {
			drains++
		}
	}
	runs := len(actions) - drains
	// Optionally prefer a drain action so buffered stores stay pending
	// across other threads' operations.
	if drains > 0 && (runs == 0 || s.Rng.Intn(100) < s.DrainBias) {
		return nthOfKind(actions, true, s.Rng.Intn(drains))
	}
	// Stickiness: continue the last thread unless chaos strikes.
	if s.hasLast && s.Rng.Intn(100) >= s.Chaos {
		for i, a := range actions {
			if a.Kind != ActDrain && a.Thread == s.last {
				return i
			}
		}
	}
	i := nthOfKind(actions, false, s.Rng.Intn(runs))
	s.last = actions[i].Thread
	s.hasLast = true
	return i
}

// nthOfKind returns the index of the n-th (from 0) drain action of actions
// when drain is set, else of the n-th run action.
func nthOfKind(actions []Action, drain bool, n int) int {
	for i, a := range actions {
		if (a.Kind == ActDrain) == drain {
			if n == 0 {
				return i
			}
			n--
		}
	}
	panic("vm: nthOfKind out of range")
}

// RoundRobinScheduler rotates through runnable threads, draining buffers
// eagerly. It gives a deterministic, SC-looking baseline execution.
type RoundRobinScheduler struct {
	next ThreadID
}

// Pick implements Scheduler.
func (s *RoundRobinScheduler) Pick(v *VM, actions []Action) int {
	// Drain first so memory stays up to date.
	for i, a := range actions {
		if a.Kind == ActDrain {
			return i
		}
	}
	// First run action with thread >= next, wrapping.
	best := -1
	for i, a := range actions {
		if a.Thread >= s.next {
			best = i
			break
		}
	}
	if best == -1 {
		best = 0
	}
	s.next = actions[best].Thread + 1
	return best
}

// FixedScheduler replays a precomputed sequence of action choices; it is
// used by tests that need full control.
type FixedScheduler struct {
	// Choices are indices into the action list at each step. When the
	// sequence runs out, Pick returns 0.
	Choices []int
	pos     int
}

// Pick implements Scheduler.
func (s *FixedScheduler) Pick(v *VM, actions []Action) int {
	if s.pos >= len(s.Choices) {
		return 0
	}
	c := s.Choices[s.pos]
	s.pos++
	if c >= len(actions) {
		return len(actions) - 1
	}
	return c
}

// FuncScheduler adapts a function to the Scheduler interface.
type FuncScheduler func(v *VM, actions []Action) int

// Pick implements Scheduler.
func (f FuncScheduler) Pick(v *VM, actions []Action) int { return f(v, actions) }
