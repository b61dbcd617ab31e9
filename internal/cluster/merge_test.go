package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/gen"
	"wdpt/internal/report"
	"wdpt/internal/sparql"
)

// unionPinQuery and unionPin are the two-tree union of the cluster_union
// workload over gen.MusicDatabaseLarge(500, 6, 1) and the SHA-256 of its
// enumerate body, as pinned by the root answer_pin_test.go.
const (
	unionPinQuery = "SELECT ?x ?y ?z WHERE (recorded_by(?x, ?y) AND published(?x, after_2010)) OPT rating(?x, ?z) " +
		"UNION SELECT ?x ?y ?zp WHERE (recorded_by(?x, ?y) AND published(?x, before_2010)) OPT formed_in(?y, ?zp)"
	unionPin = "6d1354e9885519db150f9b71e6f2edb887948d2ad9b3a70a7e14659a948104f1"
)

// memberBodies returns the bodies the members send for the union's legs:
// each tree enumerated with the auto engine and encoded as a single-tree
// enumerate report.
func memberBodies(t testing.TB, query string) [][]byte {
	t.Helper()
	u, err := sparql.ParseUnionQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	d := gen.MusicDatabaseLarge(500, 6, 1)
	var bodies [][]byte
	for _, tree := range u.Trees() {
		res, err := tree.Solve(context.Background(), d, core.SolveOptions{Mode: core.ModeEnumerate, Engine: cqeval.Auto()})
		if err != nil {
			t.Fatal(err)
		}
		rep := report.Report{Mode: "enumerate", Engine: "auto", Parallelism: 1}
		rep.SetAnswers(res.Answers)
		var buf bytes.Buffer
		if err := report.Encode(&buf, rep); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
	}
	return bodies
}

// TestMergeLegsAllocationCeiling pins the allocations of the coordinator's
// merge of the cluster_union legs (about 1 500 answers each): reading the
// two member bodies, merging and encoding the union's body. The body must
// be the pinned single-node body. The ceiling is the measured value plus at
// most 10 % headroom (go1.24, linux/amd64); a change may lower it but must
// never raise it. Readings it was set from: 55 143 when every leg was
// decoded into a MappingSet and the union re-sorted and re-encoded, 45 since
// the members' answer bytes are spliced.
func TestMergeLegsAllocationCeiling(t *testing.T) {
	const ceiling = 50
	bodies := memberBodies(t, unionPinQuery)
	hdr := report.Report{Mode: "enumerate", Engine: "auto", Parallelism: 1}
	merged, ok := mergeLegs(hdr, bodies)
	if !ok {
		t.Fatal("mergeLegs rejected the members' bodies")
	}
	if sum := sha256.Sum256(merged); hex.EncodeToString(sum[:]) != unionPin {
		t.Fatalf("merged body digest %x, want %s", sum, unionPin)
	}
	allocs := testing.AllocsPerRun(5, func() { mergeLegs(hdr, bodies) })
	t.Logf("mergeLegs: %.0f allocations", allocs)
	if allocs > ceiling {
		t.Errorf("mergeLegs allocates %.0f, ceiling %d", allocs, ceiling)
	}
}

// referenceMerge is the merge the coordinator ran before it spliced member
// bytes: decode every leg into a report, collect the answers in one
// MappingSet, take All or Maximal, re-sort and encode.
func referenceMerge(hdr report.Report, bodies [][]byte) ([]byte, bool) {
	set := cq.NewMappingSet()
	for _, body := range bodies {
		var rep report.Report
		if json.Unmarshal(body, &rep) != nil || rep.Degraded != nil {
			return nil, false
		}
		for _, h := range rep.Answers {
			set.Add(h)
		}
	}
	answers := set.All()
	if hdr.Mode == "maximal" {
		// Keep the answers no other answer properly subsumes.
		var kept []cq.Mapping
		for _, h := range answers {
			if !slices.ContainsFunc(answers, func(hp cq.Mapping) bool { return h.SubsumedBy(hp) && !h.Equal(hp) }) {
				kept = append(kept, h)
			}
		}
		answers = kept
	}
	hdr.SetAnswers(answers)
	var buf bytes.Buffer
	if err := report.Encode(&buf, hdr); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// legValues are answer values for generated legs: valid UTF-8 that needs
// every escape the encoder writes, plus plain ASCII.
var legValues = []string{"a", "b", "plain", "", "<a&b>", `say "hi"`, `back\slash`, "nul\x00", "\x1f\x7f",
	"tab\t\n\r\b\f", "line\u2028sep\u2029", "caf\u00e9", "\u65e5\u672c", "\U0001F600", "\ufffd"}

// legBody encodes answers as a member's single-tree enumerate body.
func legBody(t testing.TB, answers []cq.Mapping) []byte {
	t.Helper()
	set := cq.NewMappingSet()
	for _, h := range answers {
		set.Add(h)
	}
	rep := report.Report{Mode: "enumerate", Engine: "auto", Parallelism: 2}
	rep.SetAnswers(set.All())
	var buf bytes.Buffer
	if err := report.Encode(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomLeg draws up to n answers over the variables x, y and z (any
// subset, the empty one included) with values from legValues.
func randomLeg(rng *rand.Rand, n int) []cq.Mapping {
	var out []cq.Mapping
	for i := rng.Intn(n + 1); i > 0; i-- {
		h := cq.Mapping{}
		for _, v := range []string{"x", "y", "z"} {
			if rng.Intn(3) > 0 {
				h[v] = legValues[rng.Intn(len(legValues))]
			}
		}
		out = append(out, h)
	}
	return out
}

// TestMergeLegsMatchesReference: on member bodies of random answer sets —
// shared answers, mixed and nested domains, the empty answer, escaped and
// non-ASCII values — the merge accepts every leg and writes exactly the
// reference merge's body, in both modes and for one to four legs.
func TestMergeLegsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		bodies := make([][]byte, 1+rng.Intn(4))
		for i := range bodies {
			bodies[i] = legBody(t, randomLeg(rng, 12))
		}
		for _, mode := range []string{"enumerate", "maximal"} {
			hdr := report.Report{Mode: mode, Engine: "auto", Parallelism: 8}
			got, ok := mergeLegs(hdr, bodies)
			if !ok {
				t.Fatalf("trial %d %s: merge rejected member bodies\n%s", trial, mode, bytes.Join(bodies, nil))
			}
			if want, _ := referenceMerge(hdr, bodies); !bytes.Equal(got, want) {
				t.Fatalf("trial %d %s: merged\n%s\nwant\n%s", trial, mode, got, want)
			}
		}
	}
}

// TestMergeLegsRejectsDeviations: every body a canonical member would not
// send is refused, so the coordinator replays the request instead of
// splicing it.
func TestMergeLegsRejectsDeviations(t *testing.T) {
	good := string(legBody(t, []cq.Mapping{{"x": "a", "y": "b"}, {"x": "c"}, {"x": "d"}}))
	hdr := report.Report{Mode: "enumerate", Engine: "auto", Parallelism: 1}
	if _, ok := mergeLegs(hdr, [][]byte{[]byte(good)}); !ok {
		t.Fatalf("a canonical leg was rejected:\n%s", good)
	}
	replace := func(old, new string) string {
		if !bytes.Contains([]byte(good), []byte(old)) {
			t.Fatalf("%q is not in the leg", old)
		}
		return string(bytes.Replace([]byte(good), []byte(old), []byte(new), 1))
	}
	degraded := report.Report{Mode: "enumerate", Engine: "auto", Parallelism: 1}
	degraded.SetAnswers([]cq.Mapping{{"x": "a"}})
	yes := true
	degraded.Degraded, degraded.DegradedMode = &yes, "enumerate"
	var buf bytes.Buffer
	if err := report.Encode(&buf, degraded); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"other mode":            replace(`"mode": "enumerate"`, `"mode": "maximal"`),
		"other engine":          replace(`"engine": "auto"`, `"engine": "naive"`),
		"degraded":              buf.String(),
		"null answer":           replace("{\n      \"x\": \"c\"\n    }", "null"),
		"names out of order":    replace(`"x": "a",`+"\n      "+`"y": "b"`, `"y": "b",`+"\n      "+`"x": "a"`),
		"answers out of order":  replace(`"x": "c"`, `"x": "0"`),
		"duplicate answer":      replace(`"x": "d"`, `"x": "c"`),
		"answer_count too high": replace(`"answer_count": 3`, `"answer_count": 4`),
		"answer_count too low":  replace(`"answer_count": 3`, `"answer_count": 2`),
		"leading zero":          replace(`"answer_count": 3`, `"answer_count": 03`),
		"trailing bytes":        good + " ",
		"missing newline":       good[:len(good)-1],
		"non-canonical escape":  replace(`"x": "c"`, `"x": "\u0063"`),
		"uppercase escape":      replace(`"x": "c"`, `"x": "\u003C"`),
		"unescaped html":        replace(`"x": "c"`, `"x": "<"`),
		"raw control byte":      replace(`"x": "c"`, "\"x\": \"\x01\""),
		"invalid UTF-8":         replace(`"x": "c"`, "\"x\": \"\xff\""),
		"lossy replacement":     replace(`"x": "c"`, `"x": "\ufffd"`),
		"lone surrogate":        replace(`"x": "c"`, `"x": "\ud800"`),
		"unterminated string":   good[:bytes.Index([]byte(good), []byte(`"c"`))+2],
		"compact layout":        `{"mode":"enumerate","engine":"auto","answer_count":0}` + "\n",
	} {
		if _, ok := mergeLegs(hdr, [][]byte{[]byte(good), []byte(body)}); ok {
			t.Errorf("%s: merge accepted\n%s", name, body)
		}
	}
}

// FuzzScatterMerge: for any two leg bodies, in either mode, the merge
// either rejects them or writes exactly the reference merge's body. The
// seed corpus is under testdata/fuzz/FuzzScatterMerge.
func FuzzScatterMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte, maximal bool) {
		hdr := report.Report{Mode: "enumerate", Engine: "auto", Parallelism: 4}
		if maximal {
			hdr.Mode = "maximal"
		}
		got, ok := mergeLegs(hdr, [][]byte{a, b})
		if !ok {
			return
		}
		want, ok := referenceMerge(hdr, [][]byte{a, b})
		if !ok {
			t.Fatalf("merge accepted legs the reference rejects:\n%q\n%q", a, b)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("merged\n%s\nwant\n%s\nlegs:\n%q\n%q", got, want, a, b)
		}
	})
}
