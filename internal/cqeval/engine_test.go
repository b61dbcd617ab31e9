package cqeval

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wdpt/internal/cq"
	"wdpt/internal/db"
)

func pathDB(n int) *db.Database {
	d := db.New()
	for i := 0; i < n; i++ {
		d.Insert("E", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	return d
}

func engines() []Engine {
	return []Engine{Naive(), Yannakakis(), Decomposition(), Auto()}
}

func TestEnginesOnPathQuery(t *testing.T) {
	atoms := []cq.Atom{
		cq.NewAtom("E", cq.V("x"), cq.V("y")),
		cq.NewAtom("E", cq.V("y"), cq.V("z")),
	}
	d := pathDB(4)
	for _, e := range engines() {
		if !e.Satisfiable(atoms, d, nil) {
			t.Fatalf("%s: path query should be satisfiable", e.Name())
		}
		if e.Satisfiable(atoms, d, cq.Mapping{"x": "4"}) {
			t.Fatalf("%s: x=4 has no outgoing path of length 2", e.Name())
		}
		rows := e.Project(atoms, d, nil, []string{"x"})
		if len(rows) != 3 {
			t.Fatalf("%s: Project x = %v, want 3 rows", e.Name(), rows)
		}
	}
}

func TestEnginesCyclicQuery(t *testing.T) {
	// Triangle query — not acyclic, exercises decomposition fallback.
	atoms := []cq.Atom{
		cq.NewAtom("E", cq.V("a"), cq.V("b")),
		cq.NewAtom("E", cq.V("b"), cq.V("c")),
		cq.NewAtom("E", cq.V("c"), cq.V("a")),
	}
	d := pathDB(5)
	for _, e := range engines() {
		if e.Satisfiable(atoms, d, nil) {
			t.Fatalf("%s: path db has no triangle", e.Name())
		}
	}
	d.Insert("E", "1", "7")
	d.Insert("E", "7", "9")
	d.Insert("E", "9", "1")
	for _, e := range engines() {
		if !e.Satisfiable(atoms, d, nil) {
			t.Fatalf("%s: triangle should be found", e.Name())
		}
		rows := e.Project(atoms, d, nil, []string{"a"})
		if len(rows) != 3 {
			t.Fatalf("%s: triangle Project a = %v, want 3 rows", e.Name(), rows)
		}
	}
}

func TestEnginesGroundAtoms(t *testing.T) {
	d := pathDB(3)
	atoms := []cq.Atom{
		cq.NewAtom("E", cq.C("0"), cq.C("1")),
		cq.NewAtom("E", cq.V("x"), cq.V("y")),
	}
	for _, e := range engines() {
		if !e.Satisfiable(atoms, d, nil) {
			t.Fatalf("%s: ground atom present, should be satisfiable", e.Name())
		}
	}
	bad := []cq.Atom{cq.NewAtom("E", cq.C("9"), cq.C("9"))}
	for _, e := range engines() {
		if e.Satisfiable(bad, d, nil) {
			t.Fatalf("%s: missing ground atom accepted", e.Name())
		}
		if rows := e.Project(bad, d, nil, nil); len(rows) != 0 {
			t.Fatalf("%s: project of failed ground atom = %v", e.Name(), rows)
		}
	}
}

func TestEnginesEmptyAtomSet(t *testing.T) {
	d := pathDB(2)
	for _, e := range engines() {
		if !e.Satisfiable(nil, d, nil) {
			t.Fatalf("%s: empty query is trivially satisfiable", e.Name())
		}
		rows := e.Project(nil, d, nil, nil)
		if len(rows) != 1 || len(rows[0]) != 0 {
			t.Fatalf("%s: empty query projection = %v, want one empty row", e.Name(), rows)
		}
	}
}

func TestEnginesFixedProjection(t *testing.T) {
	// Projection variables bound by fixed must appear in the output even
	// after instantiation removes them from the atoms.
	atoms := []cq.Atom{cq.NewAtom("E", cq.V("x"), cq.V("y"))}
	d := pathDB(3)
	for _, e := range engines() {
		rows := e.Project(atoms, d, cq.Mapping{"x": "1"}, []string{"x", "y"})
		if len(rows) != 1 {
			t.Fatalf("%s: rows = %v, want 1", e.Name(), rows)
		}
		if rows[0]["x"] != "1" || rows[0]["y"] != "2" {
			t.Fatalf("%s: row = %v", e.Name(), rows[0])
		}
	}
}

func TestEnginesDisconnectedQuery(t *testing.T) {
	atoms := []cq.Atom{
		cq.NewAtom("E", cq.V("a"), cq.V("b")),
		cq.NewAtom("F", cq.V("u"), cq.V("v")),
	}
	d := pathDB(2)
	for _, e := range engines() {
		if e.Satisfiable(atoms, d, nil) {
			t.Fatalf("%s: F is empty, should be unsatisfiable", e.Name())
		}
	}
	d.Insert("F", "p", "q")
	for _, e := range engines() {
		if !e.Satisfiable(atoms, d, nil) {
			t.Fatalf("%s: both components satisfiable", e.Name())
		}
		rows := e.Project(atoms, d, nil, []string{"a", "u"})
		if len(rows) != 2 {
			t.Fatalf("%s: cartesian projection = %v, want 2 rows", e.Name(), rows)
		}
	}
}

// randomInstance builds a random query (mix of path/branch/cycle shapes) and
// a random database over a small domain.
func randomInstance(rng *rand.Rand) ([]cq.Atom, *db.Database) {
	nv := 3 + rng.Intn(4)
	na := 2 + rng.Intn(5)
	var atoms []cq.Atom
	for i := 0; i < na; i++ {
		switch rng.Intn(5) {
		case 0: // ternary atom
			atoms = append(atoms, cq.NewAtom("T",
				cq.V(fmt.Sprintf("v%d", rng.Intn(nv))),
				cq.V(fmt.Sprintf("v%d", rng.Intn(nv))),
				cq.V(fmt.Sprintf("v%d", rng.Intn(nv)))))
		case 1: // atom with a constant
			atoms = append(atoms, cq.NewAtom("E",
				cq.V(fmt.Sprintf("v%d", rng.Intn(nv))),
				cq.C(fmt.Sprint(rng.Intn(3)))))
		default:
			atoms = append(atoms, cq.NewAtom("E",
				cq.V(fmt.Sprintf("v%d", rng.Intn(nv))),
				cq.V(fmt.Sprintf("v%d", rng.Intn(nv)))))
		}
	}
	d := db.New()
	dom := 3
	for i := 0; i < 12; i++ {
		d.Insert("E", fmt.Sprint(rng.Intn(dom)), fmt.Sprint(rng.Intn(dom)))
	}
	for i := 0; i < 6; i++ {
		d.Insert("T", fmt.Sprint(rng.Intn(dom)), fmt.Sprint(rng.Intn(dom)), fmt.Sprint(rng.Intn(dom)))
	}
	return atoms, d
}

// searchProject is the reference the engines are checked against: every
// homomorphism cq.Homomorphisms finds, restricted to proj with proj's fixed
// values added, without duplicates. The string-mapping search shares none
// of the plan engine's preparing, binding, joining or sorting code.
func searchProject(atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) []cq.Mapping {
	seen := make(map[string]bool)
	var out []cq.Mapping
	cq.Homomorphisms(atoms, d, fixed, func(h cq.Mapping) bool {
		row := h.Restrict(proj)
		for _, v := range proj {
			if c, ok := fixed[v]; ok {
				row[v] = c
			}
		}
		if k := row.Key(); !seen[k] {
			seen[k] = true
			out = append(out, row)
		}
		return true
	})
	return out
}

// Property: every engine, naive included, agrees with the reference search
// on satisfiability and projections over random instances — the
// cross-validation backbone for the plan engine.
func TestEnginesAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		atoms, d := randomInstance(rng)
		var fixed cq.Mapping
		if rng.Intn(2) == 0 {
			fixed = cq.Mapping{"v0": fmt.Sprint(rng.Intn(3))}
		}
		proj := []string{"v0", "v1"}
		want := cq.Satisfiable(atoms, d, fixed)
		wantRows := searchProject(atoms, d, fixed, proj)
		for _, e := range append(engines(), Hypertree(3)) {
			if got := e.Satisfiable(atoms, d, fixed); got != want {
				t.Logf("%s sat=%v want %v for %v", e.Name(), got, want, atoms)
				return false
			}
			gotRows := e.Project(atoms, d, fixed, proj)
			if !sameRows(wantRows, gotRows) {
				t.Logf("%s rows=%v want %v for %v fixed=%v", e.Name(), gotRows, wantRows, atoms, fixed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func sameRows(a, b []cq.Mapping) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, h := range a {
		set[h.Key()] = true
	}
	for _, h := range b {
		if !set[h.Key()] {
			return false
		}
	}
	return true
}

func TestEngineNames(t *testing.T) {
	names := map[string]bool{}
	for _, e := range engines() {
		names[e.Name()] = true
	}
	if len(names) != 4 {
		t.Fatalf("engine names not distinct: %v", names)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"auto", "naive", "yannakakis", "decomposition", "hypertree"} {
		eng, err := ByName(name)
		if err != nil || eng.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, eng, err)
		}
	}
	if eng, _ := ByName("hypertree"); eng.(planEngine).maxWidth != 3 {
		t.Errorf("ByName(hypertree) width bound = %d, want 3", eng.(planEngine).maxWidth)
	}
	for _, name := range []string{"", "Auto", "x"} {
		eng, err := ByName(name)
		if eng != nil || err == nil || err.Error() != fmt.Sprintf("unknown engine %q", name) {
			t.Errorf("ByName(%q) = %v, %v", name, eng, err)
		}
	}
}

func TestHypertreeEngineBasics(t *testing.T) {
	eng := Hypertree(2)
	if eng.Name() != "hypertree" {
		t.Fatal("name wrong")
	}
	atoms := []cq.Atom{
		cq.NewAtom("E", cq.V("x"), cq.V("y")),
		cq.NewAtom("E", cq.V("y"), cq.V("z")),
	}
	d := pathDB(4)
	if !eng.Satisfiable(atoms, d, nil) {
		t.Fatal("path should be satisfiable")
	}
	rows := eng.Project(atoms, d, nil, []string{"x"})
	if len(rows) != 3 {
		t.Fatalf("Project x = %v, want 3 rows", rows)
	}
}

func TestHypertreeEngineThetaN(t *testing.T) {
	// θ_4: E-clique + covering T atom — acyclic (ghw 1) although treewidth
	// is 3. The hypertree engine must use the covering atom.
	n := 4
	var atoms []cq.Atom
	var vars []cq.Term
	for i := 1; i <= n; i++ {
		vars = append(vars, cq.V(fmt.Sprintf("x%d", i)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			atoms = append(atoms, cq.NewAtom("E", vars[i], vars[j]))
		}
	}
	atoms = append(atoms, cq.NewAtom("T", vars...))
	d := db.New()
	// One clique 1-2-3-4 in E, plus the T fact; and a decoy T fact whose
	// clique is incomplete.
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			d.Insert("E", fmt.Sprint(i), fmt.Sprint(j))
		}
	}
	d.Insert("T", "1", "2", "3", "4")
	d.Insert("T", "1", "2", "3", "9")
	eng := Hypertree(1)
	if !eng.Satisfiable(atoms, d, nil) {
		t.Fatal("theta_4 should match")
	}
	rows := eng.Project(atoms, d, nil, []string{"x1", "x4"})
	if len(rows) != 1 || rows[0]["x4"] != "4" {
		t.Fatalf("rows = %v", rows)
	}
	// Remove the full clique's T fact: only the decoy remains, whose
	// E-clique is incomplete — the enforced E atoms must reject it.
	d2 := db.New()
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			d2.Insert("E", fmt.Sprint(i), fmt.Sprint(j))
		}
	}
	d2.Insert("T", "1", "2", "3", "9")
	if eng.Satisfiable(atoms, d2, nil) {
		t.Fatal("decoy T fact accepted despite missing E edges")
	}
}

func TestHypertreeEngineFallback(t *testing.T) {
	// A triangle has ghw 2 > maxWidth 1: the engine must fall back to the
	// decomposition engine and still answer correctly.
	atoms := []cq.Atom{
		cq.NewAtom("E", cq.V("a"), cq.V("b")),
		cq.NewAtom("E", cq.V("b"), cq.V("c")),
		cq.NewAtom("E", cq.V("c"), cq.V("a")),
	}
	d := pathDB(3)
	d.Insert("E", "1", "7")
	d.Insert("E", "7", "9")
	d.Insert("E", "9", "1")
	if !Hypertree(1).Satisfiable(atoms, d, nil) {
		t.Fatal("fallback failed to find the triangle")
	}
	if !Hypertree(2).Satisfiable(atoms, d, nil) {
		t.Fatal("width-2 GHD failed to find the triangle")
	}
}

// TestHypertreeAgreesWithNaiveProperty extends the engine cross-validation
// to the GHD engine, against the reference search.
func TestHypertreeAgreesWithNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		atoms, d := randomInstance(rng)
		proj := []string{"v0", "v1"}
		want := cq.Satisfiable(atoms, d, nil)
		wantRows := searchProject(atoms, d, nil, proj)
		eng := Hypertree(3)
		if got := eng.Satisfiable(atoms, d, nil); got != want {
			t.Logf("sat=%v want %v for %v", got, want, atoms)
			return false
		}
		if got := eng.Project(atoms, d, nil, proj); !sameRows(wantRows, got) {
			t.Logf("rows=%v want %v for %v", got, wantRows, atoms)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
