package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeMusicDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "music.db")
	err := os.WriteFile(path, []byte(`
		recorded_by(Our_love, Caribou).
		published(Our_love, after_2010).
		recorded_by(Swim, Caribou).
		published(Swim, after_2010).
		rating(Swim, "2").
	`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

const musicQuery = `(recorded_by(?x,?y) AND published(?x,"after_2010")) OPT rating(?x,?z)`

func TestRunEnumerate(t *testing.T) {
	db := writeMusicDB(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"-db", db, "-query", musicQuery}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "2 answer(s)") || !strings.Contains(s, "z -> 2") {
		t.Fatalf("output:\n%s", s)
	}
}

func TestRunModes(t *testing.T) {
	db := writeMusicDB(t)
	cases := []struct {
		mode, mapping, want string
	}{
		{"partial", "y=Caribou", "true"},
		{"partial", "y=Nobody", "false"},
		{"exact", "x=Swim,y=Caribou,z=2", "true"},
		{"exact", "x=Swim,y=Caribou", "false"},
		{"max", "x=Swim,y=Caribou,z=2", "true"},
		{"maximal", "", "2 answer(s)"},
	}
	for _, c := range cases {
		var out, errOut bytes.Buffer
		code := run([]string{"-db", db, "-query", musicQuery, "-mode", c.mode, "-map", c.mapping}, &out, &errOut)
		if code != 0 {
			t.Fatalf("mode %s: exit %d: %s", c.mode, code, errOut.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Fatalf("mode %s map %q: output %q, want %q", c.mode, c.mapping, out.String(), c.want)
		}
	}
}

func TestRunTreeFormatAndClassify(t *testing.T) {
	db := writeMusicDB(t)
	query := `ANS(?x, ?y) { recorded_by(?x, ?y) { rating(?x, ?z) } }`
	var out, errOut bytes.Buffer
	if code := run([]string{"-db", db, "-query", query, "-classify"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "interface width") {
		t.Fatalf("classification missing:\n%s", out.String())
	}
}

func TestRunEngines(t *testing.T) {
	db := writeMusicDB(t)
	for _, eng := range []string{"auto", "naive", "yannakakis", "decomposition"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-db", db, "-query", musicQuery, "-mode", "partial", "-map", "y=Caribou", "-engine", eng}, &out, &errOut)
		if code != 0 || !strings.Contains(out.String(), "true") {
			t.Fatalf("engine %s: exit %d output %q err %q", eng, code, out.String(), errOut.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	db := writeMusicDB(t)
	cases := [][]string{
		{"-query", musicQuery},             // missing db
		{"-db", db},                        // missing query
		{"-db", db, "-query", "a(?x) AND"}, // parse error
		{"-db", db, "-query", musicQuery, "-mode", "bogus"},                 // bad mode
		{"-db", db, "-query", musicQuery, "-engine", "bogus"},               // bad engine
		{"-db", db, "-query", musicQuery, "-mode", "exact", "-map", "oops"}, // bad mapping
		{"-db", "/does/not/exist", "-query", musicQuery},                    // missing file
		{"-queryfile", "/does/not/exist", "-db", db},                        // missing query file
	}
	for i, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Fatalf("case %d (%v): expected failure", i, args)
		}
	}
}

// TestUnknownEngineMessage pins the stderr text for a bad -engine value; the
// vocabulary itself lives in cqeval.ByName.
func TestUnknownEngineMessage(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-db", writeMusicDB(t), "-query", musicQuery, "-engine", "bogus"}, &out, &errOut)
	if want := "wdpteval: unknown engine \"bogus\"\n"; code == 0 || errOut.String() != want {
		t.Fatalf("exit %d stderr %q, want nonzero and %q", code, errOut.String(), want)
	}
}

func TestQueryFromFile(t *testing.T) {
	db := writeMusicDB(t)
	qf := filepath.Join(t.TempDir(), "q.txt")
	if err := os.WriteFile(qf, []byte(musicQuery), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-db", db, "-queryfile", qf}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
}

func TestRunOptimizedModes(t *testing.T) {
	// Symmetric 4-cycle tree (member of M(WB(1))), database file built from
	// its vocabulary.
	db := filepath.Join(t.TempDir(), "g.db")
	if err := os.WriteFile(db, []byte(`
		E(a, b). E(b, a). E(b, c). E(c, b).
		E(c, d). E(d, c). E(d, a). E(a, d).
		V(q).
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	query := `ANS(?x) {
		e2(?x, ?x)
	}`
	_ = query
	cycle := `ANS(?x) { E(?a,?b), E(?b,?a), E(?b,?c), E(?c,?b), E(?c,?d), E(?d,?c), E(?d,?a), E(?a,?d), V(?x) }`
	var out, errOut bytes.Buffer
	code := run([]string{"-db", db, "-query", cycle, "-mode", "partial", "-map", "x=q", "-optimize", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "witness found: true") || !strings.Contains(out.String(), "true") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunHypertreeEngine(t *testing.T) {
	dbf := writeMusicDB(t)
	var out, errOut bytes.Buffer
	code := run([]string{"-db", dbf, "-query", musicQuery, "-mode", "partial", "-map", "y=Caribou", "-engine", "hypertree"}, &out, &errOut)
	if code != 0 || !strings.Contains(out.String(), "true") {
		t.Fatalf("exit %d output %q err %q", code, out.String(), errOut.String())
	}
}

func TestRunExitCodes(t *testing.T) {
	db := writeMusicDB(t)
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"deadline", []string{"-db", db, "-query", musicQuery, "-timeout", "1ns"}, 3},
		{"tuple-budget", []string{"-db", db, "-query", musicQuery, "-budget-tuples", "1"}, 4},
		{"answer-limit", []string{"-db", db, "-query", musicQuery, "-max-answers", "1"}, 5},
	}
	for _, c := range cases {
		var out, errOut bytes.Buffer
		if code := run(c.args, &out, &errOut); code != c.want {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", c.name, code, c.want, errOut.String())
		}
	}
}

func TestRunAnswerLimitKeepsPartialAnswers(t *testing.T) {
	db := writeMusicDB(t)
	var out, errOut bytes.Buffer
	code := run([]string{"-db", db, "-query", musicQuery, "-max-answers", "1", "-json"}, &out, &errOut)
	if code != 5 {
		t.Fatalf("exit %d, want 5: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, `"degraded": true`) || !strings.Contains(s, `"degraded_mode": "enumerate"`) {
		t.Fatalf("truncated run not marked degraded:\n%s", s)
	}
	if !strings.Contains(s, `"answers"`) {
		t.Fatalf("truncated run dropped its partial answer set:\n%s", s)
	}
}

func TestRunFallbackDegradesInsteadOfFailing(t *testing.T) {
	db := writeMusicDB(t)
	var out, errOut bytes.Buffer
	code := run([]string{"-db", db, "-query", musicQuery, "-max-answers", "1", "-fallback", "-json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, want 0 with -fallback: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), `"degraded": true`) {
		t.Fatalf("degraded run not marked in JSON:\n%s", out.String())
	}
}

func TestRunNoBudgetOmitsDegradedField(t *testing.T) {
	db := writeMusicDB(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"-db", db, "-query", musicQuery, "-json"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if strings.Contains(out.String(), `"degraded"`) {
		t.Fatalf("unbudgeted run emitted a degraded field:\n%s", out.String())
	}
}

func TestRunSnapshotSaveAndLoad(t *testing.T) {
	db := writeMusicDB(t)
	snap := filepath.Join(t.TempDir(), "music.snap")

	// Conversion mode: -snapshot-save with no query persists and exits 0.
	var out, errOut bytes.Buffer
	if code := run([]string{"-db", db, "-snapshot-save", snap}, &out, &errOut); code != 0 {
		t.Fatalf("save exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "snapshot saved to") {
		t.Fatalf("save output:\n%s", out.String())
	}

	// The snapshot-loaded database must answer byte-identically to the
	// text-parsed one (JSON bodies compared verbatim).
	var fromText, fromSnap bytes.Buffer
	if code := run([]string{"-db", db, "-query", musicQuery, "-json"}, &fromText, &errOut); code != 0 {
		t.Fatalf("text eval exit %d: %s", code, errOut.String())
	}
	if code := run([]string{"-snapshot", snap, "-query", musicQuery, "-json"}, &fromSnap, &errOut); code != 0 {
		t.Fatalf("snapshot eval exit %d: %s", code, errOut.String())
	}
	if !bytes.Equal(fromText.Bytes(), fromSnap.Bytes()) {
		t.Fatalf("snapshot answers diverge from text answers:\n%s\nvs\n%s", fromText.String(), fromSnap.String())
	}
}

func TestRunSnapshotFlagErrors(t *testing.T) {
	db := writeMusicDB(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"-db", db, "-snapshot", "x.snap", "-query", musicQuery}, &out, &errOut); code != 2 {
		t.Fatalf("-db with -snapshot: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "mutually exclusive") {
		t.Fatalf("stderr: %s", errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"-snapshot", filepath.Join(t.TempDir(), "missing.snap"), "-query", musicQuery}, &out, &errOut); code != 2 {
		t.Fatalf("missing snapshot: exit %d, want 2", code)
	}
}

// TestRunMapNamesVariableOnce: "x" and "?x" name one variable, so a -map
// that binds it twice is a usage error naming it, not last-wins.
func TestRunMapNamesVariableOnce(t *testing.T) {
	db := writeMusicDB(t)
	var out, errOut bytes.Buffer
	code := run([]string{"-db", db, "-query", musicQuery, "-mode", "partial", "-map", "y=Caribou,x=Swim,?x=Nope"}, &out, &errOut)
	if code != 2 || !strings.Contains(errOut.String(), `variable "x" is named twice`) {
		t.Fatalf("exit %d stderr %q, want 2 naming x", code, errOut.String())
	}
}

// TestRunOptimizeHonorsBudget: -optimize answers partial and max through
// Solve, so a tuple budget that trips without it trips with it too.
func TestRunOptimizeHonorsBudget(t *testing.T) {
	db := writeMusicDB(t)
	for _, mode := range []string{"partial", "max"} {
		args := []string{"-db", db, "-query", musicQuery, "-mode", mode, "-map", "y=Caribou", "-budget-tuples", "1"}
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 4 {
			t.Fatalf("%s: exit %d without -optimize, want the tuple-budget trip 4 (stderr: %s)", mode, code, errOut.String())
		}
		out.Reset()
		errOut.Reset()
		if code := run(append(args, "-optimize", "1"), &out, &errOut); code != 4 {
			t.Errorf("%s: exit %d with -optimize 1, want 4 (stderr: %s)", mode, code, errOut.String())
		}
	}
}
