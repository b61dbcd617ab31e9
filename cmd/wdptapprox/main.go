// Command wdptapprox computes WB(k)-approximations of well-designed pattern
// trees and decides membership in M(WB(k)) (Sections 5-6 of the paper).
//
// Examples:
//
//	wdptapprox -k 1 -query 'ANS(?x) { e(?a,?b) e(?b,?c) e(?c,?a) v(?x) }'
//	wdptapprox -k 1 -member -query '...'
//	wdptapprox -k 1 -union -query 'SELECT ?x WHERE ... UNION SELECT ?x WHERE ...'
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
	fs := flag.NewFlagSet("wdptapprox", flag.ContinueOnError)
	fs.SetOutput(stderr)
	query := fs.String("query", "", "query text (algebraic, ANS tree format, or UNION query with -union)")
	queryFile := fs.String("queryfile", "", "file containing the query")
	k := fs.Int("k", 1, "width parameter of the well-behaved class WB(k) = g-TW(k)")
	member := fs.Bool("member", false, "decide membership in M(WB(k)) instead of approximating")
	all := fs.Bool("all", false, "print all maximal approximation candidates")
	union := fs.Bool("union", false, "treat the query as a union of WDPTs (UWB(k) machinery)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := approxMain(stdout, *query, *queryFile, *k, *member, *all, *union); err != nil {
		fmt.Fprintf(stderr, "wdptapprox: %v\n", err)
		return 2
	}
	return 0
}

func approxMain(out io.Writer, query, queryFile string, k int, member, all, union bool) error {
	src, err := loadSource(query, queryFile)
	if err != nil {
		return err
	}
	if union {
		return runUnion(out, src, k, member)
	}
	p, err := parseTree(src)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if member {
		w, ok, err := wdpt.MemberWB(ctx, p, wdpt.WB(k), wdpt.ApproxOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "p ∈ M(WB(%d)): %v\n", k, ok)
		if ok {
			fmt.Fprintln(out, "witness (subsumption-equivalent, globally tractable):")
			fmt.Fprintln(out, wdpt.FormatWDPT(w))
		}
		return nil
	}
	if all {
		cands, err := wdpt.ApproximateAll(ctx, p, wdpt.WB(k), wdpt.ApproxOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d maximal WB(%d)-approximation candidate(s):\n", len(cands), k)
		for i, c := range cands {
			fmt.Fprintf(out, "-- candidate %d (size %d):\n%s", i+1, c.Size(), wdpt.FormatWDPT(c))
		}
		return nil
	}
	ap, err := wdpt.Approximate(ctx, p, wdpt.WB(k), wdpt.ApproxOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "WB(%d)-approximation (size %d, input size %d):\n", k, ap.Size(), p.Size())
	fmt.Fprintln(out, wdpt.FormatWDPT(ap))
	return nil
}

func runUnion(out io.Writer, src string, k int, member bool) error {
	u, err := wdpt.ParseUnionQuery(src)
	if err != nil {
		return err
	}
	if member {
		witnesses, ok, exact := wdpt.MemberUnionWB(u, wdpt.TW(k), 0)
		fmt.Fprintf(out, "φ ∈ M(UWB(%d)): %v (exact: %v)\n", k, ok, exact)
		if ok {
			fmt.Fprintln(out, "witness union of tractable CQs:")
			for _, q := range witnesses {
				fmt.Fprintln(out, "  "+q.String())
			}
		}
		return nil
	}
	qs, err := wdpt.ApproximateUnion(u, wdpt.TW(k), 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "UWB(%d)-approximation: union of %d CQ(s):\n", k, len(qs))
	for _, q := range qs {
		fmt.Fprintln(out, "  "+q.String())
	}
	return nil
}

func loadSource(inline, file string) (string, error) {
	src := inline
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return "", err
		}
		src = string(data)
	}
	if strings.TrimSpace(src) == "" {
		return "", fmt.Errorf("a query is required (-query or -queryfile)")
	}
	return src, nil
}

func parseTree(src string) (*core.PatternTree, error) {
	if strings.HasPrefix(strings.TrimSpace(strings.ToUpper(src)), "ANS") {
		return wdpt.ParseWDPT(src)
	}
	return wdpt.ParseQuery(src)
}
