package vm

import (
	"slices"
	"testing"
)

// stepSrc gives the scheduler a mix of run and drain actions: under PSO,
// w1's buffer holds a[3] twice and stores addresses in descending order,
// and w2's holds a[1] twice behind x.
const stepSrc = `
int a[4];
int x;
func w1() {
	a[3] = 1;
	a[2] = 2;
	a[3] = 3;
	a[0] = 4;
	x = 1;
}
func w2() {
	x = 2;
	a[1] = 5;
	a[1] = 6;
	int v = a[3];
	print(v);
}
func main() {
	int h1 = spawn w1();
	int h2 = spawn w2();
	join(h1);
	join(h2);
}
`

// sortedActions is actions sorted by (kind, thread, address), the order
// EnabledActions promises.
func sortedActions(actions []Action) []Action {
	out := slices.Clone(actions)
	slices.SortFunc(out, func(p, q Action) int {
		if p.Kind != q.Kind {
			return int(p.Kind) - int(q.Kind)
		}
		if p.Thread != q.Thread {
			return int(p.Thread) - int(q.Thread)
		}
		return p.Addr - q.Addr
	})
	return out
}

// TestEnabledActionsSorted checks, at every step of SC, TSO and PSO runs,
// that EnabledActions lists its actions sorted by (kind, thread, address)
// without sorting them, and that the PSO runs reach buffers holding one
// address twice and addresses stored in descending order.
func TestEnabledActionsSorted(t *testing.T) {
	prog := compile(t, stepSrc)
	for _, model := range []MemModel{SC, TSO, PSO} {
		var steps, drains, dupBufs, descBufs int
		for seed := int64(0); seed < 40; seed++ {
			rs := NewRandomScheduler(seed)
			rs.DrainBias = 10 // let buffers fill up
			v, err := New(prog, Config{Model: model, Sched: FuncScheduler(func(v *VM, actions []Action) int {
				steps++
				if want := sortedActions(actions); !slices.Equal(actions, want) {
					t.Fatalf("%v seed %d: EnabledActions = %v, sorted %v", model, seed, actions, want)
				}
				for _, th := range v.Threads() {
					if th.buf == nil {
						continue
					}
					seen := map[int]bool{}
					for i, e := range th.buf.entries {
						if seen[e.addr] {
							dupBufs++
						}
						seen[e.addr] = true
						if i > 0 && e.addr < th.buf.entries[i-1].addr {
							descBufs++
						}
					}
				}
				i := rs.Pick(v, actions)
				if actions[i].Kind == ActDrain {
					drains++
				}
				return i
			})})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := v.Run(); err != nil {
				t.Fatalf("%v seed %d: %v", model, seed, err)
			}
		}
		if steps == 0 {
			t.Fatalf("%v: no scheduling steps", model)
		}
		if model != SC && drains == 0 {
			t.Errorf("%v: no drain action was picked", model)
		}
		if model == PSO && (dupBufs == 0 || descBufs == 0) {
			t.Errorf("PSO: %d steps with an address buffered twice, %d with descending addresses; want both > 0", dupBufs, descBufs)
		}
	}
}

// pickSequence runs stepSrc under PSO with s and returns every index Pick
// chose.
func pickSequence(t *testing.T, s *RandomScheduler) []int {
	t.Helper()
	var picks []int
	v, err := New(compile(t, stepSrc), Config{Model: PSO, Sched: FuncScheduler(func(v *VM, actions []Action) int {
		i := s.Pick(v, actions)
		picks = append(picks, i)
		return i
	})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	return picks
}

// TestReseedMatchesNewRandomScheduler checks that a scheduler re-seeded
// after a dirty run (tuned knobs, a last thread, a consumed stream) picks
// exactly what a fresh NewRandomScheduler with that seed picks.
func TestReseedMatchesNewRandomScheduler(t *testing.T) {
	s := NewRandomScheduler(99)
	s.Chaos, s.DrainBias = 90, 80
	pickSequence(t, s)
	for seed := int64(0); seed < 20; seed++ {
		s.Reseed(seed)
		fresh := NewRandomScheduler(seed)
		if s.Chaos != fresh.Chaos || s.DrainBias != fresh.DrainBias || s.hasLast {
			t.Fatalf("seed %d: Reseed left chaos %d, drain bias %d, hasLast %v", seed, s.Chaos, s.DrainBias, s.hasLast)
		}
		got, want := pickSequence(t, s), pickSequence(t, fresh)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: re-seeded picks %v, fresh picks %v", seed, got, want)
		}
		s.Chaos = int(seed) * 5 // dirty it again for the next seed
	}
}

// TestSchedulingStepAllocs checks that a steady-state scheduling step,
// EnabledActions then Pick, allocates nothing, with several threads
// runnable and PSO buffers holding stores to several addresses.
func TestSchedulingStepAllocs(t *testing.T) {
	measured := false
	rs := NewRandomScheduler(1)
	probe := NewRandomScheduler(2)
	v, err := New(compile(t, stepSrc), Config{Model: PSO, Sched: FuncScheduler(func(v *VM, actions []Action) int {
		runs, drains := 0, 0
		for _, a := range actions {
			if a.Kind == ActDrain {
				drains++
			} else {
				runs++
			}
		}
		if !measured && runs >= 2 && drains >= 2 {
			measured = true
			// EnabledActions refills the buffer actions points into with
			// the same list, so the step below still sees it intact.
			if n := testing.AllocsPerRun(100, func() {
				probe.Pick(v, v.EnabledActions())
			}); n != 0 {
				t.Errorf("EnabledActions + Pick allocates %v times per step, want 0", n)
			}
		}
		// Never drain, so stores pile up in the buffers.
		for i, a := range actions {
			if a.Kind == ActRun {
				return i
			}
		}
		return rs.Pick(v, actions)
	})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if !measured {
		t.Fatal("no step had two runnable threads and two drainable stores")
	}
}
