// Command wdptanalyze classifies a well-designed pattern tree in the
// taxonomy of Section 3 of the paper: local treewidth/hypertreewidth,
// interface width, global treewidth/hypertreewidth — and reports which
// column of Table 1 (and hence which evaluation complexity) applies.
//
// Example:
//
//	wdptanalyze -query 'SELECT ?y WHERE (rec(?x,?y) OPT rating(?x,?z))'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"wdpt"
	"wdpt/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wdptanalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	query := fs.String("query", "", "query text (algebraic or ANS tree format)")
	queryFile := fs.String("queryfile", "", "file containing the query")
	semantic := fs.Int("semantic", 0, "k > 0: additionally decide membership in M(WB(k)) (can be slow; constant-free trees only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p, err := loadQuery(*query, *queryFile)
	if err != nil {
		fmt.Fprintf(stderr, "wdptanalyze: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, "tree:")
	fmt.Fprintln(stdout, indent(p.String(), "  "))
	fmt.Fprintln(stdout)
	cl := p.Classify()
	fmt.Fprintln(stdout, cl)
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, verdict(cl))
	if *semantic > 0 {
		if p.HasConstants() {
			fmt.Fprintln(stdout, "semantic analysis skipped: the tree mentions constants (Section 5.2)")
			return 0
		}
		w, ok, err := wdpt.MemberWB(context.Background(), p, wdpt.WB(*semantic), wdpt.ApproxOptions{})
		if err != nil {
			fmt.Fprintf(stderr, "wdptanalyze: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "semantic: p ∈ M(WB(%d)): %v\n", *semantic, ok)
		if ok && w != p {
			fmt.Fprintln(stdout, "  witness:")
			fmt.Fprintln(stdout, indent(w.String(), "  "))
		}
	}
	return 0
}

// verdict renders the Table 1 placement implied by the classification.
func verdict(cl core.Classification) string {
	var b strings.Builder
	b.WriteString("Table 1 placement:\n")
	if cl.LocalTW > 0 && cl.InterfaceWidth >= 0 {
		fmt.Fprintf(&b,
			"  EVAL:         tractable (LOGCFL) — p ∈ ℓ-TW(%d) ∩ BI(%d)  [Theorems 6, 7]\n",
			cl.LocalTW, cl.InterfaceWidth)
	} else if cl.LocalHW > 0 {
		fmt.Fprintf(&b,
			"  EVAL:         tractable (LOGCFL) — p ∈ ℓ-HW(%d) ∩ BI(%d)  [Theorems 6, 7]\n",
			cl.LocalHW, cl.InterfaceWidth)
	} else {
		b.WriteString("  EVAL:         no tractability guarantee from local structure\n")
	}
	switch {
	case cl.GlobalTW > 0:
		fmt.Fprintf(&b,
			"  PARTIAL-EVAL: tractable (LOGCFL) — p ∈ g-TW(%d)  [Theorem 8]\n", cl.GlobalTW)
		fmt.Fprintf(&b,
			"  MAX-EVAL:     tractable (LOGCFL) — p ∈ g-TW(%d)  [Theorem 9]\n", cl.GlobalTW)
		fmt.Fprintf(&b,
			"  ⊑ as RHS:     coNP — subsumption INTO p is coNP-decidable  [Theorem 11]\n")
	case cl.GlobalHW > 0:
		fmt.Fprintf(&b,
			"  PARTIAL-EVAL: tractable (LOGCFL) — p ∈ g-HW(%d)  [Theorem 8]\n", cl.GlobalHW)
		fmt.Fprintf(&b,
			"  MAX-EVAL:     tractable (LOGCFL) — p ∈ g-HW(%d)  [Theorem 9]\n", cl.GlobalHW)
	default:
		b.WriteString("  PARTIAL-EVAL: NP-complete in general  [Proposition 1]\n")
		b.WriteString("  MAX-EVAL:     DP-complete in general  [Proposition 4]\n")
	}
	if cl.ProjectionFree {
		b.WriteString("  (projection-free: EVAL is coNP-complete in general, PTIME under local tractability [Theorem 4])\n")
	}
	return b.String()
}

func loadQuery(inline, file string) (*core.PatternTree, error) {
	src := inline
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		src = string(data)
	}
	if strings.TrimSpace(src) == "" {
		return nil, fmt.Errorf("a query is required (-query or -queryfile)")
	}
	if strings.HasPrefix(strings.TrimSpace(strings.ToUpper(src)), "ANS") {
		return wdpt.ParseWDPT(src)
	}
	return wdpt.ParseQuery(src)
}

func indent(s, pre string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = pre + lines[i]
	}
	return strings.Join(lines, "\n")
}
