package report_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/cqeval"
	"wdpt/internal/gen"
	"wdpt/internal/obs"
	"wdpt/internal/report"
	"wdpt/internal/sparql"
)

// hostile are strings that exercise every escape of encoding/json: the
// HTML escapes, quotes and backslashes, control bytes with and without a
// short escape, DEL, U+2028/U+2029, valid non-ASCII, invalid UTF-8 (a lone
// continuation byte, a truncated sequence, an encoded surrogate) and a
// literal U+FFFD.
var hostile = []string{
	"", "a", "plain ascii", "<", ">", "&", "<a&b>", `"`, `\`, `a"b\c`,
	"\x00", "\x01", "\x1f", "\x7f", "\b\f\n\r\t", "\u2028", "\u2029", "x\u2028y<z",
	"caf\u00e9", "\u65e5\u672c", "\U0001F600", "\xff", "\xc3", "a\xed\xa0\x80b", "\ufffd", "\xef\xbf\xbd\xff",
}

// randomString returns a hostile string or a short run of random bytes.
func randomString(rng *rand.Rand) string {
	if rng.Intn(3) > 0 {
		return hostile[rng.Intn(len(hostile))]
	}
	b := make([]byte, rng.Intn(8))
	for i := range b {
		switch rng.Intn(4) {
		case 0:
			b[i] = byte(rng.Intn(0x20))
		case 1:
			b[i] = byte(0x80 + rng.Intn(0x80))
		default:
			b[i] = byte(0x20 + rng.Intn(0x60))
		}
	}
	return string(b)
}

// randomReport is a report with every optional field independently set or
// unset, and nil, empty and hostile contents wherever the type allows.
type randomReport struct{ r report.Report }

func optBool(rng *rand.Rand) *bool {
	if rng.Intn(2) == 0 {
		return nil
	}
	v := rng.Intn(2) == 0
	return &v
}

func optString(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return ""
	}
	return randomString(rng)
}

func randomInt(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return -rng.Intn(100)
	case 2:
		return math.MaxInt64 - rng.Intn(3)
	}
	return rng.Intn(1000)
}

func randomMapping(rng *rand.Rand) cq.Mapping {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return cq.Mapping{}
	}
	h := cq.Mapping{}
	for n := rng.Intn(4) + 1; n > 0; n-- {
		h[randomString(rng)] = randomString(rng)
	}
	return h
}

func randomSpans(rng *rand.Rand, depth int) []obs.SpanNode {
	if depth > 2 || rng.Intn(2) == 0 {
		return nil
	}
	out := make([]obs.SpanNode, rng.Intn(3))
	for i := range out {
		out[i] = obs.SpanNode{Name: randomString(rng), DurationNS: int64(randomInt(rng)), Children: randomSpans(rng, depth+1)}
	}
	return out
}

func (randomReport) Generate(rng *rand.Rand, size int) reflect.Value {
	r := report.Report{
		Mode:               randomString(rng),
		Engine:             randomString(rng),
		Classification:     optString(rng),
		Result:             optBool(rng),
		Degraded:           optBool(rng),
		DegradedMode:       optString(rng),
		OptimizerTractable: optBool(rng),
	}
	if rng.Intn(2) == 0 {
		r.Parallelism = randomInt(rng)
	}
	if rng.Intn(2) == 0 {
		n := randomInt(rng)
		r.AnswerCount = &n
	}
	switch rng.Intn(4) {
	case 0:
	case 1:
		r.Answers = []cq.Mapping{}
	default:
		for n := rng.Intn(size + 1); n > 0; n-- {
			r.Answers = append(r.Answers, randomMapping(rng))
		}
	}
	switch rng.Intn(3) {
	case 1:
		r.Counters = map[string]int64{}
	case 2:
		r.Counters = map[string]int64{}
		for n := rng.Intn(5) + 1; n > 0; n-- {
			r.Counters[randomString(rng)] = int64(randomInt(rng))
		}
	}
	switch rng.Intn(3) {
	case 1:
		r.Plans = []obs.Plan{}
	case 2:
		for n := rng.Intn(3) + 1; n > 0; n-- {
			p := obs.Plan{Engine: randomString(rng), Strategy: randomString(rng), Fallback: rng.Intn(2) == 0,
				Width: randomInt(rng), Atoms: randomInt(rng), Label: optString(rng)}
			for b := rng.Intn(3); b > 0; b-- {
				bag := obs.PlanBag{Atoms: randomInt(rng), Rows: randomInt(rng), Parent: randomInt(rng)}
				if rng.Intn(3) > 0 {
					bag.Vars = []string{}
					for v := rng.Intn(3); v > 0; v-- {
						bag.Vars = append(bag.Vars, randomString(rng))
					}
				}
				p.Bags = append(p.Bags, bag)
			}
			r.Plans = append(r.Plans, p)
		}
	}
	if rng.Intn(3) == 0 {
		r.Trace = []obs.SpanNode{}
	} else {
		r.Trace = randomSpans(rng, 0)
	}
	return reflect.ValueOf(randomReport{r})
}

// encodeBoth returns Encode's and the reference's bytes for r.
func encodeBoth(t *testing.T, r report.Report) (got, want []byte) {
	t.Helper()
	var g, w bytes.Buffer
	if err := report.Encode(&g, r); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if err := referenceEncode(&w, r); err != nil {
		t.Fatalf("reference: %v", err)
	}
	return g.Bytes(), w.Bytes()
}

// TestEncodeMatchesReference is the byte-parity property: for random
// reports — every optional field set and unset, counters, plans and trace,
// nil, empty and zero answers, hostile strings as names, values, counter
// keys and header fields — Encode writes exactly the reference's bytes.
func TestEncodeMatchesReference(t *testing.T) {
	prop := func(rr randomReport) bool {
		got, want := encodeBoth(t, rr.r)
		if !bytes.Equal(got, want) {
			t.Logf("Encode:\n%q\nreference:\n%q", got, want)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeHostileStrings checks every hostile string alone in each place
// a string can sit: a header field, an answer's name and value, and a
// counter key.
func TestEncodeHostileStrings(t *testing.T) {
	for _, s := range hostile {
		n := 1
		r := report.Report{Mode: s, Engine: s, Classification: s, DegradedMode: s, AnswerCount: &n,
			Answers: []cq.Mapping{{s: s, "v": s}, nil, {}}, Counters: map[string]int64{s: 1, "k": 2}}
		if got, want := encodeBoth(t, r); !bytes.Equal(got, want) {
			t.Errorf("%q: Encode wrote\n%q\nwant\n%q", s, got, want)
		}
	}
}

// unionPinQuery is the cluster_union workload's two-tree union over
// gen.MusicDatabaseLarge(500, 6, 1), as pinned by the root
// answer_pin_test.go: about 3 000 answers.
const unionPinQuery = "SELECT ?x ?y ?z WHERE (recorded_by(?x, ?y) AND published(?x, after_2010)) OPT rating(?x, ?z) " +
	"UNION SELECT ?x ?y ?zp WHERE (recorded_by(?x, ?y) AND published(?x, before_2010)) OPT formed_in(?y, ?zp)"

// TestEncodeAllocationCeiling pins the allocations of encoding the
// 3 000-answer union body. The ceiling is the measured value plus at most
// 10 % headroom (go1.24, linux/amd64); a change may lower it but must never
// raise it. Readings it was set from: 18 389 with encoding/json's
// reflective encoder, 29 since Encode appends into one buffer.
func TestEncodeAllocationCeiling(t *testing.T) {
	const ceiling = 32
	u, err := sparql.ParseUnionQuery(unionPinQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.Solve(context.Background(), gen.MusicDatabaseLarge(500, 6, 1), core.SolveOptions{Mode: core.ModeEnumerate, Engine: cqeval.Auto()})
	if err != nil {
		t.Fatal(err)
	}
	rep := report.Report{Mode: "enumerate", Engine: "auto", Parallelism: 1}
	rep.SetAnswers(res.Answers)
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(5, func() {
		buf.Reset()
		if err := report.Encode(&buf, rep); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Encode of %d answers: %.0f allocations", len(rep.Answers), allocs)
	if allocs > ceiling {
		t.Errorf("Encode allocates %.0f, ceiling %d", allocs, ceiling)
	}
}
