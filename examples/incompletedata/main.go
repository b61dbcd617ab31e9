// Incomplete data: optional matching over a relational HR dataset where
// employee records are partially filled — the motivating scenario of the
// paper's introduction, outside the semantic web. Conjunctive queries fail
// on employees missing an office or a phone number; the WDPT returns the
// best available answer for everyone and the three evaluation variants
// answer different operational questions.
package main

import (
	"context"
	"fmt"

	"wdpt"
)

func main() {
	d := hrDatabase()

	// For every employee of the engineering department: the name always,
	// and office, phone, and the manager's name when recorded. Office and
	// phone are independent optional branches; the manager's name is a
	// nested optional below the manager id.
	p := wdpt.MustNew(wdpt.NodeSpec{
		Atoms: []wdpt.Atom{
			wdpt.NewAtom("employee", wdpt.V("id"), wdpt.V("name")),
			wdpt.NewAtom("dept", wdpt.V("id"), wdpt.C("engineering")),
		},
		Children: []wdpt.NodeSpec{
			{Atoms: []wdpt.Atom{wdpt.NewAtom("office", wdpt.V("id"), wdpt.V("room"))}},
			{Atoms: []wdpt.Atom{wdpt.NewAtom("phone", wdpt.V("id"), wdpt.V("ext"))}},
			{
				Atoms: []wdpt.Atom{wdpt.NewAtom("manager", wdpt.V("id"), wdpt.V("mid"))},
				Children: []wdpt.NodeSpec{
					{Atoms: []wdpt.Atom{wdpt.NewAtom("employee", wdpt.V("mid"), wdpt.V("mname"))}},
				},
			},
		},
	}, []string{"name", "room", "ext", "mname"})

	fmt.Println("query:")
	fmt.Println(wdpt.FormatWDPT(p))

	fmt.Println("p(D) — one row per engineer, as complete as the data allows:")
	for _, h := range solve(p, d, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate}).Answers {
		fmt.Println("  " + h.String())
	}
	fmt.Println()

	// A plain conjunctive query demanding every field drops the
	// incomplete employees entirely.
	all := wdpt.MustNew(wdpt.NodeSpec{
		Atoms: []wdpt.Atom{
			wdpt.NewAtom("employee", wdpt.V("id"), wdpt.V("name")),
			wdpt.NewAtom("dept", wdpt.V("id"), wdpt.C("engineering")),
			wdpt.NewAtom("office", wdpt.V("id"), wdpt.V("room")),
			wdpt.NewAtom("phone", wdpt.V("id"), wdpt.V("ext")),
			wdpt.NewAtom("manager", wdpt.V("id"), wdpt.V("mid")),
			wdpt.NewAtom("employee", wdpt.V("mid"), wdpt.V("mname")),
		},
	}, []string{"name", "room", "ext", "mname"})
	fmt.Printf("the corresponding CQ returns only %d row(s) — incomplete records are dropped\n\n",
		len(solve(all, d, wdpt.SolveOptions{Mode: wdpt.ModeEnumerate}).Answers))

	// Decision problems, tractably (the tree is ℓ-TW(1) ∩ BI(1)):
	eng := wdpt.AutoEngine()
	fmt.Println("operational checks:")
	fmt.Printf("  is there any answer naming Ada?                 %v\n",
		solve(p, d, wdpt.SolveOptions{Mode: wdpt.ModePartial, Mapping: wdpt.Mapping{"name": "Ada"}, Engine: eng}).Holds)
	fmt.Printf("  is {name: Grace} exactly what we know of Grace? %v (her phone is on file)\n",
		solve(p, d, wdpt.SolveOptions{Mode: wdpt.ModeExact, Mapping: wdpt.Mapping{"name": "Grace"}, Engine: eng}).Holds)
	fmt.Printf("  is {name: Grace, ext: 4711} maximal knowledge?  %v\n",
		solve(p, d, wdpt.SolveOptions{Mode: wdpt.ModeMax, Mapping: wdpt.Mapping{"name": "Grace", "ext": "4711"}, Engine: eng}).Holds)

	cl := p.Classify()
	fmt.Printf("\nstructure: ℓ-TW(%d) ∩ BI(%d), g-TW(%d) — every check above ran in polynomial time\n",
		cl.LocalTW, cl.InterfaceWidth, cl.GlobalTW)
}

// solve runs one evaluation through the Solve entry point; these examples
// set no budget, so an error is a bug.
func solve(p *wdpt.PatternTree, d *wdpt.Database, opts wdpt.SolveOptions) wdpt.SolveResult {
	res, err := p.Solve(context.Background(), d, opts)
	if err != nil {
		panic(err)
	}
	return res
}

func hrDatabase() *wdpt.Database {
	d := wdpt.NewDatabase()
	// Ada: complete record, manager with a name on file.
	d.Insert("employee", "e1", "Ada")
	d.Insert("dept", "e1", "engineering")
	d.Insert("office", "e1", "R101")
	d.Insert("phone", "e1", "1234")
	d.Insert("manager", "e1", "e3")
	// Grace: phone only.
	d.Insert("employee", "e2", "Grace")
	d.Insert("dept", "e2", "engineering")
	d.Insert("phone", "e2", "4711")
	// Edsger: office only, manager id recorded but the manager's own
	// record is missing (the nested optional stays unmatched).
	d.Insert("employee", "e4", "Edsger")
	d.Insert("dept", "e4", "engineering")
	d.Insert("office", "e4", "R202")
	d.Insert("manager", "e4", "e999")
	// Barbara: the manager, different department.
	d.Insert("employee", "e3", "Barbara")
	d.Insert("dept", "e3", "research")
	return d
}
