package oracle

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/vm"
)

// Shape is a family of random programs.
type Shape int

// Program shapes.
const (
	// Counters: workers increment shared counters, at most one under a
	// lock, and main asserts that every increment landed (SC).
	Counters Shape = iota
	// SymbolicIndex: threads index a shared array by a value read from a
	// racing variable, so the constraint system carries symbolic
	// addresses, and main asserts slot 0 untouched (SC).
	SymbolicIndex
	// StoreBuffer: two threads raise their own flag, then enter a critical
	// section if the other's is down. Both get in only when a store is
	// delayed past the next load, so it fails only under TSO or PSO.
	StoreBuffer
)

// Shapes lists every shape.
var Shapes = []Shape{Counters, SymbolicIndex, StoreBuffer}

// String names the shape.
func (s Shape) String() string {
	switch s {
	case Counters:
		return "counters"
	case SymbolicIndex:
		return "symbolic-index"
	case StoreBuffer:
		return "store-buffer"
	}
	return fmt.Sprintf("shape(%d)", int(s))
}

// Program draws a random program of the given shape and the memory model
// to record it under. Its recordings have 10–23 SAPs, so Enumerate walks
// all of their schedules in well under a second. A draw may never fail;
// callers skip those.
func Program(r *rand.Rand, shape Shape) (src string, model vm.MemModel) {
	switch shape {
	case Counters:
		return counters(r), vm.SC
	case SymbolicIndex:
		return symbolicIndex(r), vm.SC
	case StoreBuffer:
		return storeBuffer(r)
	}
	panic(fmt.Sprintf("oracle: unknown shape %d", int(shape)))
}

// counters: two workers increment one shared counter once or twice, or
// two counters once each. One of two counters may be locked; the other
// never is, so every draw can lose an update.
func counters(r *rand.Rand) string {
	const workers = 2
	vars, iters := 1, 1+r.Intn(2)
	if r.Intn(2) == 0 {
		vars, iters = 2, 1
	}
	locked := r.Intn(vars) // variables below this index are locked

	var sb strings.Builder
	for v := 0; v < vars; v++ {
		fmt.Fprintf(&sb, "int g%d;\n", v)
	}
	sb.WriteString("mutex m;\n")
	sb.WriteString("func worker() {\n\tint i;\n")
	fmt.Fprintf(&sb, "\tfor (i = 0; i < %d; i = i + 1) {\n", iters)
	for v := 0; v < vars; v++ {
		if v < locked {
			fmt.Fprintf(&sb, "\t\tlock(m);\n\t\tint t%d = g%d;\n\t\tg%d = t%d + 1;\n\t\tunlock(m);\n", v, v, v, v)
		} else {
			fmt.Fprintf(&sb, "\t\tint t%d = g%d;\n\t\tg%d = t%d + 1;\n", v, v, v, v)
		}
	}
	sb.WriteString("\t}\n}\n")
	sb.WriteString("func main() {\n")
	for w := 0; w < workers; w++ {
		fmt.Fprintf(&sb, "\tint h%d = spawn worker();\n", w)
	}
	for w := 0; w < workers; w++ {
		fmt.Fprintf(&sb, "\tjoin(h%d);\n", w)
	}
	cond := make([]string, vars)
	for v := 0; v < vars; v++ {
		fmt.Fprintf(&sb, "\tint f%d = g%d;\n", v, v)
		cond[v] = fmt.Sprintf("f%d == %d", v, workers*iters)
	}
	fmt.Fprintf(&sb, "\tassert(%s, \"all updates landed\");\n}\n", strings.Join(cond, " && "))
	return sb.String()
}

// symbolicIndex: each writer publishes an index and stores into the array,
// at a constant slot or at the slot the index variable holds when it
// looks. Main stores at the slot it reads from the index variable, so
// which slot every symbolic store hits depends on the interleaving.
func symbolicIndex(r *rand.Rand) string {
	n := 2 + r.Intn(3)       // array size 2..4
	writers := 1 + r.Intn(2) // 1..2 racing writer threads
	var sb strings.Builder
	fmt.Fprintf(&sb, "int a[%d];\nint idx;\n", n)
	for w := 0; w < writers; w++ {
		fmt.Fprintf(&sb, "func t%d() {\n\tidx = %d;\n", w, r.Intn(n))
		if r.Intn(2) == 0 {
			fmt.Fprintf(&sb, "\ta[%d] = %d;\n", 1+r.Intn(n-1), 10+w)
		} else {
			fmt.Fprintf(&sb, "\tint j = idx;\n\ta[j %% %d] = %d;\n", n, 10+w)
		}
		sb.WriteString("}\n")
	}
	sb.WriteString("func main() {\n")
	for w := 0; w < writers; w++ {
		fmt.Fprintf(&sb, "\tint h%d = spawn t%d();\n", w, w)
	}
	fmt.Fprintf(&sb, "\tint i = idx;\n\ta[i %% %d] = 7;\n", n)
	for w := 0; w < writers; w++ {
		fmt.Fprintf(&sb, "\tjoin(h%d);\n", w)
	}
	sb.WriteString("\tint v = a[0];\n\tassert(v == 0, \"racy index hit slot 0\");\n}\n")
	return sb.String()
}

// storeBuffer is the Dekker entry protocol without fences: each thread
// raises its flag and, if the other's is still down, increments bad. Main
// asserts that at most one thread's increments landed. One 31-bit draw
// picks the model from its low bit, as r.Intn(2) would, and the variant
// from the rest: each thread may store to its own global g<t> before its
// flag, so that store is still buffered at the check, or after the check;
// and either thread 0 reloads its flag, which drains it, or thread 1
// fences after its flag. Never both: the VM forwards a buffered store to
// its own thread's reload without draining it, which the encoding's
// same-address W→R edge does not allow, so that draw can fail in the VM
// with no valid schedule.
func storeBuffer(r *rand.Rand) (string, vm.MemModel) {
	v := r.Int31()
	model := vm.TSO
	if v&1 == 0 {
		model = vm.PSO
	}
	const incs = 1
	var sb strings.Builder
	sb.WriteString("int flag0;\nint flag1;\nint bad;\nint g0;\nint g1;\n")
	for t := 0; t < 2; t++ {
		extra := v >> (1 + 2*t) & 3 // 1: store g<t> first, 2: store it last
		fmt.Fprintf(&sb, "func t%d() {\n", t)
		if extra == 1 {
			fmt.Fprintf(&sb, "\tg%d = %d;\n", t, t+1)
		}
		fmt.Fprintf(&sb, "\tflag%d = 1;\n", t)
		if v>>5&1 == 1 && int(v>>6&1) == t {
			if t == 0 {
				sb.WriteString("\tint mine = flag0;\n")
			} else {
				sb.WriteString("\tfence();\n")
			}
		}
		fmt.Fprintf(&sb, "\tif (flag%d == 0) {\n", 1-t)
		for i := 0; i < incs; i++ {
			sb.WriteString("\t\tbad = bad + 1;\n")
		}
		sb.WriteString("\t}\n")
		if extra == 2 {
			fmt.Fprintf(&sb, "\tg%d = %d;\n", t, t+1)
		}
		sb.WriteString("}\n")
	}
	fmt.Fprintf(&sb, `func main() {
	int h0 = spawn t0();
	int h1 = spawn t1();
	join(h0);
	join(h1);
	int b = bad;
	assert(b <= %d, "both passed the gate");
}
`, incs)
	return sb.String(), model
}
