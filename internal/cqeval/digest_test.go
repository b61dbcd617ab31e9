package cqeval

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"wdpt/internal/cq"
	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
)

// planEngineDigest is the SHA-256 of the transcript TestPlanEngineDigest writes:
// every observable output of the plan-based engines over digestCases seeded
// instances. It was committed against the four-struct implementation and
// must not change under a refactor of the engines or the executor; a change
// here means rows, verdicts, EXPLAIN output, a counter, or a meter charge
// moved.
const planEngineDigest = "1e16e554e28e68ef90612d278bba95d4a544aa83f652559347743a57105842bf"

const digestCases = 420

// digestInstance derives case i from randomInstance, layering on the inputs
// the random generator alone rarely or never produces: duplicate atoms, a
// cycle, a ground atom that holds, a ground atom naming a constant absent
// from the dictionary, sealed and unsealed dictionaries, pre-bindings of
// zero, one and three variables, and a projection variable that occurs
// nowhere.
func digestInstance(i int) (atoms []cq.Atom, d *db.Database, fixed cq.Mapping, proj []string) {
	rng := rand.New(rand.NewSource(int64(i)))
	atoms, d = randomInstance(rng)
	if i%4 == 1 {
		atoms = append(atoms, atoms[rng.Intn(len(atoms))])
	}
	if i%8 == 4 {
		// A 4-cycle: random instances are mostly acyclic, and the fallback
		// and width-2 GHD paths need steady traffic.
		for k := 0; k < 4; k++ {
			atoms = append(atoms, cq.NewAtom("E", cq.V(fmt.Sprintf("v%d", k)), cq.V(fmt.Sprintf("v%d", (k+1)%4))))
		}
	}
	switch i % 10 {
	case 2, 7:
		d.Insert("G", "g")
		atoms = append(atoms, cq.NewAtom("G", cq.C("g")))
	case 3:
		atoms = append(atoms, cq.NewAtom("E", cq.C("absent"), cq.C("0")))
	}
	if i%2 == 0 {
		d.Seal()
	}
	switch i % 3 {
	case 1:
		fixed = cq.Mapping{"v0": fmt.Sprint(rng.Intn(3))}
	case 2:
		fixed = cq.Mapping{
			"v0": fmt.Sprint(rng.Intn(3)),
			"v1": fmt.Sprint(rng.Intn(3)),
			"v2": fmt.Sprint(rng.Intn(3)),
		}
	}
	proj = []string{"v0", "v1", "nowhere"}
	if i%7 == 0 {
		proj = append(proj, "v3", "v4")
	}
	return atoms, d, fixed, proj
}

// TestPlanEngineDigest runs every case on one engine value per constructor —
// so the plan cache carries over from Satisfiable to Project to Explain and
// from case to case — and hashes what each call returned
// and counted.
func TestPlanEngineDigest(t *testing.T) {
	h := sha256.New()
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	for _, base := range []Engine{Yannakakis(), Decomposition(), Auto(), Hypertree(1), Hypertree(2)} {
		for i := 0; i < digestCases; i++ {
			atoms, d, fixed, proj := digestInstance(i)
			st := obs.NewStats()
			eng := WithStats(base, st)
			w("%s #%d sat=%v\n", eng.Name(), i, eng.Satisfiable(atoms, d, fixed))
			var rows []string
			for _, r := range eng.Project(atoms, d, fixed, proj) {
				rows = append(rows, r.String())
			}
			sort.Strings(rows)
			w("rows=%q\n", rows)
			explain, err := json.Marshal(eng.Explain(atoms, d, fixed))
			if err != nil {
				t.Fatal(err)
			}
			w("explain=%s\n", explain)
			snap := st.Snapshot()
			names := make([]string, 0, len(snap))
			for name := range snap {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				w("%s=%d\n", name, snap[name])
			}
			// Second run under a meter: the charge total pins every
			// ChargeTuples site.
			gm := guard.NewMeter(context.Background(), guard.Budget{MaxTuples: 1 << 40}, nil)
			metered := WithMeter(WithStats(base, nil), gm)
			metered.Satisfiable(atoms, d, fixed)
			metered.Project(atoms, d, fixed, proj)
			w("charged=%d\n", gm.Tuples())
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != planEngineDigest {
		t.Fatalf("plan-engine digest = %s, want %s", got, planEngineDigest)
	}
}

// TestProjectCanonicalOrder: every engine returns Project's rows strictly
// increasing in the CompareMappings order, on every digest instance. The
// answer pins cannot see this, since the report encoder sorts again, but
// the union decision short-circuit and the answer-cap truncation take the
// rows in the order Project gives them.
func TestProjectCanonicalOrder(t *testing.T) {
	for _, name := range []string{"auto", "naive", "yannakakis", "decomposition", "hypertree"} {
		eng, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		multi := 0
		for i := 0; i < digestCases; i++ {
			atoms, d, fixed, proj := digestInstance(i)
			rows := eng.Project(atoms, d, fixed, proj)
			if len(rows) > 1 {
				multi++
			}
			for j := 1; j < len(rows); j++ {
				if cq.CompareMappings(rows[j-1], rows[j]) >= 0 {
					t.Fatalf("%s #%d: row %d %v does not sort after row %d %v", name, i, j, rows[j], j-1, rows[j-1])
				}
			}
		}
		t.Logf("%s: %d of %d instances return more than one row", name, multi, digestCases)
	}
}
