package sat

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// theoryInstance is a CNF over n problem variables plus a hidden lemma
// set over those and over fresh further variables, which the theory
// creates the first time a lemma that mentions them is due. Lemma literals number the
// problem variables first, then the fresh ones. Each entry of assume is
// one Solve call's assumptions, over problem variables.
type theoryInstance struct {
	n, fresh int
	cnf      [][]Lit
	lemmas   [][]Lit
	assume   [][]Lit
}

// lemmaTheory is an instance's theory on one solver: it maps the hidden
// variables to solver variables and finds the lemmas an assignment
// violates.
type lemmaTheory struct {
	s      *Solver
	inst   *theoryInstance
	vars   []int // solver variable of each hidden variable, -1 until created
	batch  int   // at most this many lemmas per check; 0 = all
	added  int   // lemmas handed to the solver
	fresh  int   // lemmas that created a variable
	checks int   // hook calls
}

// maxChecks stops a hook that keeps rejecting, which only a solver that
// fails to take its lemmas in would make it do, before the lemma queue
// eats the machine's memory.
const maxChecks = 1 << 14

func newLemmaTheory(s *Solver, inst *theoryInstance, batch int) *lemmaTheory {
	vars := make([]int, inst.n+inst.fresh)
	for v := range vars {
		vars[v] = -1
		if v < inst.n {
			vars[v] = v
		}
	}
	return &lemmaTheory{s: s, inst: inst, vars: vars, batch: batch}
}

// due returns, as solver literals, the lemmas whose literals over existing
// variables are all false, creating the fresh variables they mention.
func (th *lemmaTheory) due() [][]Lit {
	var out [][]Lit
	for _, lem := range th.inst.lemmas {
		if !th.falsified(lem) {
			continue
		}
		lits := make([]Lit, len(lem))
		created := false
		for i, l := range lem {
			if th.vars[l.Var()] < 0 {
				th.vars[l.Var()] = th.s.NewVar()
				created = true
			}
			lits[i] = MkLit(th.vars[l.Var()], l.Neg())
		}
		if created {
			th.fresh++
		}
		out = append(out, lits)
		if th.batch > 0 && len(out) == th.batch {
			break
		}
	}
	th.added += len(out)
	return out
}

// falsified reports whether no literal of lem over an existing variable is
// true.
func (th *lemmaTheory) falsified(lem []Lit) bool {
	for _, l := range lem {
		if v := th.vars[l.Var()]; v >= 0 && th.s.Value(v) != l.Neg() {
			return false
		}
	}
	return true
}

// hook installs the theory as the solver's Theory hook.
func (th *lemmaTheory) hook() {
	th.s.Theory = func() Status {
		if th.checks++; th.checks > maxChecks {
			return Unknown
		}
		due := th.due()
		for _, lem := range due {
			th.s.AddLemma(lem...)
		}
		if len(due) > 0 {
			return Unsat
		}
		return Sat
	}
}

// reentry is the reference DPLL(T) loop: Solve, add the due lemmas with
// AddClause (which rewinds to level 0), and solve again until no lemma is
// due.
func (th *lemmaTheory) reentry(assume []Lit) Status {
	for {
		st := th.s.Solve(assume...)
		if st != Sat {
			return st
		}
		due := th.due()
		if len(due) == 0 {
			return Sat
		}
		for _, lem := range due {
			th.s.AddClause(lem...)
		}
	}
}

// checkModel verifies a Sat verdict: the assumptions hold, every clause
// holds, and every lemma has a true literal over an existing variable (a
// lemma over a variable never created holds for some value of it only if
// so, since the theory creates the variables of every falsified lemma).
func (th *lemmaTheory) checkModel(assume []Lit) error {
	holds := func(l Lit) bool { return th.s.Value(l.Var()) != l.Neg() }
	for _, a := range assume {
		if !holds(a) {
			return fmt.Errorf("assumption %v is false in the model", a)
		}
	}
	for _, cl := range th.inst.cnf {
		if !th.clauseHolds(cl, holds) {
			return fmt.Errorf("clause %v is false in the model", cl)
		}
	}
	for _, lem := range th.inst.lemmas {
		if th.falsified(lem) {
			return fmt.Errorf("lemma %v is false in the model", lem)
		}
	}
	return nil
}

func (th *lemmaTheory) clauseHolds(cl []Lit, holds func(Lit) bool) bool {
	for _, l := range cl {
		if holds(l) {
			return true
		}
	}
	return false
}

// checkTheoryInstance solves the instance's calls three ways on fresh
// solvers — the Theory hook, the AddClause re-entry loop, and brute force
// over every hidden variable — and requires equal verdicts and valid
// models. After the first call it also requires the hook solver's DIMACS
// export, lemmas included, to get the same verdict without the hook.
func checkTheoryInstance(inst *theoryInstance, batch int) (*lemmaTheory, error) {
	hs, rs := New(inst.n), New(inst.n)
	for _, cl := range inst.cnf {
		hs.AddClause(cl...)
		rs.AddClause(cl...)
	}
	hook, ref := newLemmaTheory(hs, inst, batch), newLemmaTheory(rs, inst, batch)
	hook.hook()
	all := append(append([][]Lit{}, inst.cnf...), inst.lemmas...)
	for call, assume := range inst.assume {
		want := Unsat
		units := append([][]Lit{}, all...)
		for _, a := range assume {
			units = append(units, []Lit{a})
		}
		if bruteForce(inst.n+inst.fresh, units) {
			want = Sat
		}
		got := hs.Solve(assume...)
		if got != want {
			return hook, fmt.Errorf("call %d under %v: hook says %v, brute force %v", call, assume, got, want)
		}
		if r := ref.reentry(assume); r != want {
			return hook, fmt.Errorf("call %d under %v: re-entry loop says %v, brute force %v", call, assume, r, want)
		}
		if got == Sat {
			if err := hook.checkModel(assume); err != nil {
				return hook, fmt.Errorf("call %d under %v: hook model: %v", call, assume, err)
			}
			if err := ref.checkModel(assume); err != nil {
				return hook, fmt.Errorf("call %d under %v: re-entry model: %v", call, assume, err)
			}
		}
		if call > 0 {
			continue
		}
		var buf bytes.Buffer
		if err := hs.WriteDIMACS(&buf); err != nil {
			return hook, err
		}
		ps, err := ParseDIMACS(&buf)
		if err != nil {
			return hook, err
		}
		if len(assume) == 0 {
			if d := ps.Solve(); d != got {
				return hook, fmt.Errorf("DIMACS export with the lemmas says %v, the hook %v", d, got)
			}
		}
	}
	return hook, nil
}

// randomTheoryInstance draws an instance of up to 12 problem and 4 fresh
// variables whose CNF is usually satisfiable, so that the lemmas decide
// the verdict.
func randomTheoryInstance(r *rand.Rand) *theoryInstance {
	inst := &theoryInstance{n: 4 + r.Intn(9), fresh: r.Intn(5)}
	clause := func(nv, minW, maxW int) []Lit {
		cl := make([]Lit, minW+r.Intn(maxW-minW+1))
		for i := range cl {
			cl[i] = MkLit(r.Intn(nv), r.Intn(2) == 1)
		}
		return cl
	}
	for i := 1 + r.Intn(2*inst.n); i > 0; i-- {
		inst.cnf = append(inst.cnf, clause(inst.n, 2, 4))
	}
	for i := inst.n + r.Intn(2*inst.n+1); i > 0; i-- {
		inst.lemmas = append(inst.lemmas, clause(inst.n+inst.fresh, 1, 4))
	}
	inst.assume = [][]Lit{nil}
	for i := 0; i < 3; i++ {
		inst.assume = append(inst.assume, clause(inst.n, 1, 3))
	}
	return inst
}

// TestPropertyTheoryHookMatchesReentryAndBruteForce is the hook's
// differential test: on random CNFs with random hidden lemma sets, some
// over variables the hook creates, and on re-entered calls under
// assumptions, the in-search lemmas give the verdicts of the AddClause
// re-entry loop and of brute force, and every model satisfies every
// clause and lemma.
func TestPropertyTheoryHookMatchesReentryAndBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	verdicts := map[Status]int{}
	lemmas, fresh := 0, 0
	for trial := 0; trial < 400; trial++ {
		inst := randomTheoryInstance(r)
		th, err := checkTheoryInstance(inst, r.Intn(4))
		if err != nil {
			t.Fatalf("trial %d: %v\ninstance: %+v", trial, err, *inst)
		}
		verdicts[th.s.Solve()]++
		lemmas += th.added
		fresh += th.fresh
	}
	// The generator must exercise both verdicts and the hook's lemmas,
	// fresh variables included.
	if verdicts[Sat] < 40 || verdicts[Unsat] < 40 || lemmas < 2000 || fresh < 200 {
		t.Fatalf("weak coverage: verdicts %v, %d lemmas, %d with fresh variables", verdicts, lemmas, fresh)
	}
	t.Logf("verdicts %v, %d in-search lemmas, %d with fresh variables", verdicts, lemmas, fresh)
}

// TestTheoryHookContract pins the hook's verdict protocol.
func TestTheoryHookContract(t *testing.T) {
	a, b := MkLit(0, false), MkLit(1, false)

	// A lemma over a variable the hook creates: the new variable joins
	// the search at once and is assigned in the accepted model.
	s := New(2)
	s.AddClause(a, b)
	fresh := -1
	s.Theory = func() Status {
		if fresh < 0 {
			fresh = s.NewVar()
			s.AddLemma(a.Not(), MkLit(fresh, false))
			s.AddLemma(b.Not(), MkLit(fresh, true))
			return Unsat
		}
		return Sat
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("solve with a fresh-variable lemma = %v", got)
	}
	if s.Value(0) && s.Value(1) {
		t.Fatal("the lemmas forbid a ∧ b")
	}
	if s.Value(0) != s.Value(fresh) {
		t.Fatalf("a → x and b → ¬x: a=%v x=%v", s.Value(0), s.Value(fresh))
	}

	// A unit of a batch must not make a later lemma of the same batch
	// look unit: (x ∨ ¬g1) asserts ¬g1 under the assumption ¬x, after
	// which (g0 ∨ g1 ∨ g2) still has two free literals. Enqueueing g0
	// with that clause as its reason would let (¬g0 ∨ y) and
	// (¬g0 ∨ ¬y ∨ g1) teach the solver g1, refuting a satisfiable call.
	s = New(1)
	x := MkLit(0, false)
	var g []Lit
	s.Theory = func() Status {
		if g != nil {
			return Sat
		}
		for i := 0; i < 4; i++ {
			g = append(g, MkLit(s.NewVar(), false))
		}
		y := g[3]
		s.AddLemma(x, g[1].Not())
		s.AddLemma(g[0], g[1], g[2])
		s.AddLemma(g[0].Not(), y)
		s.AddLemma(g[0].Not(), y.Not(), g[1])
		return Unsat
	}
	if got := s.Solve(x.Not()); got != Sat {
		t.Fatalf("batch with a unit: Solve(¬x) = %v, want SAT", got)
	}
	if s.Value(0) || s.Value(g[0].Var()) || s.Value(g[1].Var()) || !s.Value(g[2].Var()) {
		t.Fatalf("batch with a unit: model %v, want x, g0, g1 false and g2 true", s.Model())
	}

	// Unknown ends the call; a rejection without a lemma does too.
	for _, v := range []Status{Unknown, Unsat} {
		s := New(1)
		s.Theory = func() Status { return v }
		if got := s.Solve(); got != Unknown {
			t.Fatalf("hook returning %v without lemmas: Solve = %v, want UNKNOWN", v, got)
		}
	}

	// An empty lemma refutes the formula for good.
	s = New(1)
	s.Theory = func() Status { s.AddLemma(); return Unsat }
	if got := s.Solve(); got != Unsat {
		t.Fatalf("empty lemma: Solve = %v", got)
	}
	s.Theory = nil
	if got := s.Solve(); got != Unsat {
		t.Fatalf("after an empty lemma: Solve = %v", got)
	}

	// AddLemma belongs to the hook.
	defer func() {
		if recover() == nil {
			t.Fatal("AddLemma outside the hook did not panic")
		}
	}()
	New(1).AddLemma(a)
}

// decodeTheoryInstance reads an instance of at most 10 problem and 3
// fresh variables from fuzz bytes (missing bytes read as zero) and the
// hook's lemma batch size.
func decodeTheoryInstance(data []byte) (*theoryInstance, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	inst := &theoryInstance{n: 1 + next()%10, fresh: next() % 4}
	batch := next() % 4
	nclauses, nlemmas, ncalls := next()%24, next()%16, 1+next()%4
	clause := func(nv, maxW int) []Lit {
		cl := make([]Lit, next()%(maxW+1))
		for i := range cl {
			b := next()
			cl[i] = MkLit(b/2%nv, b&1 == 1)
		}
		return cl
	}
	for i := 0; i < nclauses; i++ {
		inst.cnf = append(inst.cnf, clause(inst.n, 4))
	}
	for i := 0; i < nlemmas; i++ {
		inst.lemmas = append(inst.lemmas, clause(inst.n+inst.fresh, 4))
	}
	for i := 0; i < ncalls; i++ {
		inst.assume = append(inst.assume, clause(inst.n, 3))
	}
	return inst, batch
}

// FuzzTheoryHook checks the hook against brute force and the re-entry
// loop on instances decoded from arbitrary bytes.
func FuzzTheoryHook(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+r.Intn(128))
		r.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, batch := decodeTheoryInstance(data)
		if _, err := checkTheoryInstance(inst, batch); err != nil {
			t.Fatalf("%v\ninstance: %+v, batch %d", err, *inst, batch)
		}
	})
}
