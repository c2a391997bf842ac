package constraints

import (
	"fmt"
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
)

const lockedCounterSrc = `
int c;
mutex m;
func worker() {
	lock(m);
	int t = c;
	c = t + 1;
	unlock(m);
}
func main() {
	int h;
	h = spawn worker();
	lock(m);
	int t = c;
	c = t + 5;
	unlock(m);
	join(h);
	assert(c != 6, "both ran");
}
`

// rejection is a rejected order and the text its error must render.
type rejection struct {
	order []SAPRef
	want  string
}

// rejections builds, from the recorded schedule of lockedCounterSrc, one
// rejected order per kind this system can trip, each with the text the
// rejection must render.
func rejections(t *testing.T) (*System, map[string]rejection) {
	t.Helper()
	r := findFailing(t, lockedCounterSrc, vm.SC, 3000)
	sys := buildSystem(t, r, vm.SC)
	order := recordedOrder(sys, r.global)
	if _, err := sys.ValidateSchedule(order); err != nil {
		t.Fatalf("recorded schedule must validate: %v", err)
	}
	n := len(order)
	with := func(edit func(o []SAPRef) []SAPRef) []SAPRef {
		return edit(append([]SAPRef(nil), order...))
	}
	cases := map[string]rejection{}
	cases["length"] = rejection{order[:n-1], fmt.Sprintf("constraints: invalid schedule: schedule has %d entries, system has %d SAPs", n-1, n)}
	cases["range"] = rejection{with(func(o []SAPRef) []SAPRef { o[2] = SAPRef(n); return o }), fmt.Sprintf("constraints: invalid schedule at position 2: SAP ref %d out of range", n)}
	cases["twice"] = rejection{with(func(o []SAPRef) []SAPRef { o[1] = o[0]; return o }), fmt.Sprintf("constraints: invalid schedule at position 1: SAP %s appears twice", sys.SAPs[order[0]])}
	// Swap the first hard edge's endpoints.
	e := sys.HardEdges[0]
	pos := map[SAPRef]int{}
	for i, ref := range order {
		pos[ref] = i
	}
	cases["edge"] = rejection{with(func(o []SAPRef) []SAPRef { o[pos[e[0]]], o[pos[e[1]]] = e[1], e[0]; return o }),
		fmt.Sprintf("constraints: invalid schedule at position %d: order edge violated: %s must precede %s", pos[e[0]], sys.SAPs[e[0]], sys.SAPs[e[1]])}
	// Move the later region's lock right after the earlier one's.
	var mu ir.SyncID
	for m := range sys.Regions {
		mu = m
	}
	a, b := sys.Regions[mu][0], sys.Regions[mu][1]
	if pos[a.Lock] > pos[b.Lock] {
		a, b = b, a
	}
	overlap := make([]SAPRef, 0, n)
	at := 0
	for _, ref := range order {
		if ref == b.Lock {
			continue
		}
		overlap = append(overlap, ref)
		if ref == a.Lock {
			at = len(overlap)
			overlap = append(overlap, b.Lock)
		}
	}
	s := sys.SAPs[b.Lock]
	cases["mutex"] = rejection{overlap, fmt.Sprintf("constraints: invalid schedule at position %d: %s acquires mutex m%d held by t%d", at, s, s.Mutex, sys.SAPs[a.Lock].Thread)}
	return sys, cases
}

// TestValidationErrorText pins the text of each rejection kind: it is
// formatted lazily, from the arguments captured at the rejection.
func TestValidationErrorText(t *testing.T) {
	sys, cases := rejections(t)
	for name, c := range cases {
		_, err := sys.ValidateSchedule(c.order)
		if err == nil {
			t.Errorf("%s: schedule accepted", name)
			continue
		}
		if got := err.Error(); got != c.want {
			t.Errorf("%s:\ngot  %q\nwant %q", name, got, c.want)
		}
	}
	for _, c := range []struct {
		err  *ValidationError
		want string
	}{
		{vErr(3, "value of %s: %v", "w", fmt.Errorf("boom")), "constraints: invalid schedule at position 3: value of w: boom"},
		{vErr(-1, "path condition %s is false", "x > 1"), "constraints: invalid schedule: path condition x > 1 is false"},
		{vErr(-1, "bug predicate %s is false (failure would not manifest)", "y == 0"), "constraints: invalid schedule: bug predicate y == 0 is false (failure would not manifest)"},
		{vErr(4, "address of %s out of bounds (index %d)", "a[i]", 9), "constraints: invalid schedule at position 4: address of a[i] out of bounds (index 9)"},
	} {
		if got := c.err.Error(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}

// TestRejectionAllocations pins the rejection path's allocations: the
// error and its argument slice, never the rendered text.
func TestRejectionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled validators")
	}
	sys, cases := rejections(t)
	bad := cases["edge"].order
	if n := testing.AllocsPerRun(200, func() { _, _ = sys.ValidateSchedule(bad) }); n > 2 {
		t.Fatalf("a rejecting ValidateSchedule allocates %v times, want at most 2", n)
	}
}
