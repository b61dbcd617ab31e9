package harness

import (
	"wdpt/internal/gen"
	"wdpt/internal/subsume"
)

// Experiment E5: the ⊑ and ≡s rows of Table 1 — the coNP fast path
// (PARTIAL-EVAL inner check, valid because the right-hand side is globally
// tractable) against the generic Π₂ᴾ-style enumeration inner check.

func init() {
	Register(Experiment{
		ID:    "E5",
		Title: "Subsumption: tractable inner check (Thm 11) vs enumeration inner check",
		Paper: "Table 1, rows ⊑ and ≡s: coNP under g-C(k) vs Π₂ᴾ in general",
		Run:   runE5,
	})
}

func runE5(cfg Config) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "p ⊑ p (reflexive worst case) on star trees of growing width",
		Paper:   "Theorem 11: coNP-membership when the RHS is globally tractable",
		Columns: []string{"width", "|p|", "holds", "t(inner=P-EVAL)", "t(inner=enumerate)"},
	}
	widths := []int{2, 3, 4}
	if cfg.Quick {
		widths = []int{2, 3}
	}
	ctx := cfg.Context()
	for _, w := range widths {
		p := gen.StarWDPT(w)
		var holds bool
		var err error
		fast := cfg.Measure(func() {
			holds, err = subsume.Subsumes(ctx, p, p, subsume.Options{Stats: cfg.Stats})
		})
		t.noteError(err)
		slow := cfg.Measure(func() {
			_, err = subsume.Subsumes(ctx, p, p, subsume.Options{InnerEnumerate: true, Stats: cfg.Stats})
		})
		t.noteError(err)
		t.AddRow(w, p.Size(), holds, fast, slow)
		if !holds {
			t.Notes = append(t.Notes, "ERROR: reflexive subsumption failed")
		}
	}
	// Equivalence of syntactic variants: the music tree with swapped
	// children (both directions, so this is the ≡s row).
	p1 := gen.MusicWDPT("x", "y", "z", "zp")
	var err error
	eq := cfg.Measure(func() {
		_, err = subsume.Equivalent(ctx, p1, p1, subsume.Options{Stats: cfg.Stats})
	})
	t.noteError(err)
	t.AddRow("music≡s", p1.Size(), true, eq, "-")
	t.Notes = append(t.Notes,
		"expected shape: both columns grow with the 2^width outer subtree enumeration, but the enumeration inner check multiplies in another 2^width factor")
	return t
}
