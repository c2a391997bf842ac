package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/constraints"
	"repro/internal/minic"
	"repro/internal/oracle"
	"repro/internal/races"
	"repro/internal/symexec"
	"repro/internal/vm"
)

// raceSiteKey names a conflicting source-site pair independently of which
// side the analysis reports first.
func raceSiteKey(v string, a minic.Pos, aw bool, b minic.Pos, bw bool) string {
	if b.Line < a.Line || b.Line == a.Line && (b.Col < a.Col || b.Col == a.Col && aw && !bw) {
		a, aw, b, bw = b, bw, a, aw
	}
	return fmt.Sprintf("%s %s/%v %s/%v", v, a, aw, b, bw)
}

// oracleAdjacentSites walks every valid schedule of the benign system and
// returns the site pairs some schedule runs with no synchronization SAP
// between the two accesses — AssumeAdjacent's criterion — over the
// conflicting pairs the race analysis enumerates: different threads, the
// same variable, possibly the same cell, at least one write.
func oracleAdjacentSites(sys *constraints.System, limit int) (map[string]bool, bool) {
	n := len(sys.SAPs)
	conflict := make([][]string, n)
	for i := range conflict {
		conflict[i] = make([]string, n)
		x := sys.SAP(constraints.SAPRef(i))
		for j := range conflict[i] {
			y := sys.SAP(constraints.SAPRef(j))
			if !x.Kind.IsMemory() || !y.Kind.IsMemory() || x.Thread == y.Thread || x.Var != y.Var {
				continue
			}
			xw, yw := x.Kind == symexec.SAPWrite, y.Kind == symexec.SAPWrite
			if _, maybe := symexec.SameCell(x, y); maybe && (xw || yw) {
				conflict[i][j] = raceSiteKey(sys.An.Prog.Globals[x.Var].Name, x.Pos, xw, y.Pos, yw)
			}
		}
	}
	adjacent := map[string]bool{}
	complete := oracle.Enumerate(sys, limit, func(order []constraints.SAPRef, _ *constraints.Witness) {
		for i, a := range order {
			for _, b := range order[i+1:] {
				if !sys.SAP(b).Kind.IsMemory() {
					break
				}
				if key := conflict[a][b]; key != "" {
					adjacent[key] = true
				}
			}
		}
	})
	return adjacent, complete
}

// TestRaceVerdictsMatchOracle checks `clap races` against the brute-force
// oracle on examples/races and on random programs: every confirmed site
// pair is adjacent in some valid schedule of the benign system, no
// refuted one is, and every adjacent pair is reported confirmed or
// unknown — pruning may not drop it.
func TestRaceVerdictsMatchOracle(t *testing.T) {
	type program struct {
		name  string
		src   string
		model vm.MemModel
	}
	var progs []program
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "races", "*.mc"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no races examples (err=%v)", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{strings.TrimSuffix(filepath.Base(path), ".mc"), string(src), vm.SC})
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 9; trial++ {
		shape := oracle.Shapes[trial%len(oracle.Shapes)]
		src, model := oracle.Program(r, shape)
		progs = append(progs, program{fmt.Sprintf("%s trial %d", shape, trial), src, model})
	}

	confirmed, refuted, checked := 0, 0, 0
	for _, p := range progs {
		prog, err := Compile(p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		opts := RecordOptions{Model: p.model, SeedLimit: 3000, NoDemote: true}
		rec, err := Record(prog, opts)
		if nf := (*NoFailureError)(nil); errors.As(err, &nf) {
			rec, err = RecordSeed(prog, 0, opts)
		}
		if err != nil {
			t.Fatalf("%s: record: %v", p.name, err)
		}
		rep, err := rec.DetectRaces(races.Options{}, nil)
		if err != nil {
			t.Fatalf("%s: races: %v", p.name, err)
		}
		sys, err := rec.AnalyzeBenign()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		sys.Preprocess()
		adjacent, complete := oracleAdjacentSites(sys, 1<<20)
		if !complete {
			t.Fatalf("%s: %d SAPs are too many for the oracle", p.name, len(sys.SAPs))
		}
		verdict := map[string]races.Status{}
		for _, f := range rep.Findings {
			key := raceSiteKey(f.Var, f.A.Pos, f.A.Write, f.B.Pos, f.B.Write)
			verdict[key] = f.Status
			switch {
			case f.Status == races.Confirmed && !adjacent[key]:
				t.Errorf("%s: %s confirmed, but no valid schedule runs it adjacent", p.name, key)
			case f.Status == races.Refuted && adjacent[key]:
				t.Errorf("%s: %s refuted, but a valid schedule runs it adjacent", p.name, key)
			case f.Status == races.Confirmed:
				confirmed++
			case f.Status == races.Refuted:
				refuted++
			}
		}
		for key := range adjacent {
			switch s, ok := verdict[key]; {
			case !ok:
				t.Errorf("%s: %s is adjacent in a valid schedule, but not reported", p.name, key)
			case s != races.Confirmed && s != races.Unknown:
				t.Errorf("%s: %s is adjacent in a valid schedule, but reported %v", p.name, key, s)
			}
		}
		checked++
	}
	if confirmed == 0 || refuted == 0 {
		t.Fatalf("%d confirmed and %d refuted site pairs checked; need both", confirmed, refuted)
	}
	t.Logf("%d programs: %d confirmed and %d refuted site pairs agree with the oracle", checked, confirmed, refuted)
}
