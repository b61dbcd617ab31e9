// Package core implements well-designed pattern trees (WDPTs), the primary
// contribution of Barceló & Pichler, "Efficient Evaluation and Approximation
// of Well-designed Pattern Trees" (PODS 2015): the data type with
// well-designedness validation (Definition 1), the three evaluation
// semantics EVAL / PARTIAL-EVAL / MAX-EVAL (Definition 2, Sections 3.3-3.4),
// the tractable evaluation algorithms of Theorems 6-9, and the structural
// classifiers — local tractability, bounded interface BI(c), and global
// tractability — of Section 3.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"wdpt/internal/cq"
)

// Node is a node of a pattern tree, labeled with a set of relational atoms.
type Node struct {
	atoms    []cq.Atom
	vars     []string // cached cq.AtomsVars(atoms); nodes are immutable
	children []*Node
	parent   *Node
	id       int // preorder index within its PatternTree
}

// Atoms returns the label λ(t) of the node. Must not be modified.
func (n *Node) Atoms() []cq.Atom { return n.atoms }

// Children returns the child nodes. Must not be modified.
func (n *Node) Children() []*Node { return n.children }

// ID returns the node's preorder index within its tree (root = 0).
func (n *Node) ID() int { return n.id }

// Vars returns the distinct variables mentioned in the node's label. The
// returned slice is computed once at construction and must not be modified.
func (n *Node) Vars() []string { return n.vars }

// NodeSpec describes a node when constructing a pattern tree.
type NodeSpec struct {
	Atoms    []cq.Atom
	Children []NodeSpec
}

// PatternTree is a well-designed pattern tree (T, λ, x̄): a rooted tree of
// atom-labeled nodes with a tuple of free variables. Instances are immutable
// after construction and always well-designed (New validates Definition 1).
type PatternTree struct {
	root  *Node
	nodes []*Node // preorder; nodes[i].id == i
	free  []string
	// subtrees memoizes per-subtree derived structure (atoms, vars,
	// extension units): subtree-local evaluation recomputes these for the
	// same subtree at every band/extension step, and the tree is immutable,
	// so the computation is a pure function of the node-id set. Entries are
	// keyed by subtreeKey and shared by concurrent Solve goroutines; the
	// entry count is bounded by maxSubtreeCache to keep the exponential
	// subtree space from exhausting memory (past the bound, callers compute
	// without caching).
	subtrees     sync.Map // subtreeKey → *subtreeInfo
	subtreeCount atomic.Int64
	// pruned is the Lemma 1 form Solve evaluates (PruneNonProjecting),
	// computed once on first use; a tree with nothing to prune is its own
	// pruned form.
	pruneOnce sync.Once
	pruned    *PatternTree
}

// maxSubtreeCache bounds the number of memoized subtree entries per tree.
// The subtree space is exponential in |T|, but real evaluations revisit a
// small working set; the bound only matters for adversarial enumerations.
const maxSubtreeCache = 1 << 14

// subtreeInfo is the memoized derived structure of one rooted subtree.
// atoms and vars are always set; units is filled lazily by extensionUnits
// (nil means not yet computed — an empty unit list is stored non-nil).
type subtreeInfo struct {
	atoms []cq.Atom
	vars  []string
	units atomic.Pointer[[]extUnit]
}

// subtreeKey returns a canonical comparable key for the node-id set: a
// uint64 bitmask for trees of at most 64 nodes (the common case), else the
// sorted-id string rendering.
func (p *PatternTree) subtreeKey(s Subtree) any {
	if len(p.nodes) <= 64 {
		var m uint64
		for id, in := range s {
			if in {
				m |= 1 << uint(id)
			}
		}
		return m
	}
	return s.Key()
}

// subtreeInfoOf returns the memoized derived structure of s, computing and
// (size permitting) caching it.
func (p *PatternTree) subtreeInfoOf(s Subtree) *subtreeInfo {
	key := p.subtreeKey(s)
	if v, ok := p.subtrees.Load(key); ok {
		return v.(*subtreeInfo)
	}
	var atoms []cq.Atom
	for _, n := range p.nodes {
		if s[n.id] {
			atoms = append(atoms, n.atoms...)
		}
	}
	atoms = cq.DedupAtoms(atoms)
	info := &subtreeInfo{atoms: atoms, vars: cq.AtomsVars(atoms)}
	if p.subtreeCount.Load() < maxSubtreeCache {
		if v, loaded := p.subtrees.LoadOrStore(key, info); loaded {
			return v.(*subtreeInfo)
		}
		p.subtreeCount.Add(1)
	}
	return info
}

// New builds a pattern tree from the root spec and free-variable tuple,
// validating Definition 1: every variable's occurrence set must be connected
// in T (well-designedness), and the free variables must be distinct and
// mentioned in T.
func New(root NodeSpec, free []string) (*PatternTree, error) {
	p := &PatternTree{}
	var build func(spec NodeSpec, parent *Node) *Node
	build = func(spec NodeSpec, parent *Node) *Node {
		n := &Node{
			atoms:  cq.DedupAtoms(spec.Atoms),
			parent: parent,
			id:     len(p.nodes),
		}
		n.vars = cq.AtomsVars(n.atoms)
		p.nodes = append(p.nodes, n)
		for _, c := range spec.Children {
			n.children = append(n.children, build(c, n))
		}
		return n
	}
	p.root = build(root, nil)
	p.free = append([]string(nil), free...)
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustNew is New that panics on error.
func MustNew(root NodeSpec, free []string) *PatternTree {
	p, err := New(root, free)
	if err != nil {
		// Must-constructor: panicking on invalid literals is its documented contract
		panic(err)
	}
	return p
}

// FromCQ converts a conjunctive query to the equivalent single-node WDPT
// (Section 2: CQs are the WDPTs consisting of the root node only).
func FromCQ(q *cq.CQ) *PatternTree {
	return MustNew(NodeSpec{Atoms: q.Atoms()}, q.Free())
}

func (p *PatternTree) validate() error {
	// Well-designedness: the occurrence set of every variable is connected.
	// In a tree this holds iff for every variable y, every node mentioning y
	// except the topmost one has a parent that also mentions y.
	mentions := make(map[string]bool)
	occ := make(map[string][]*Node)
	for _, n := range p.nodes {
		for _, v := range n.Vars() {
			occ[v] = append(occ[v], n) // preorder: first element is topmost candidate
			mentions[v] = true
		}
	}
	vars := make([]string, 0, len(occ))
	for v := range occ {
		vars = append(vars, v)
	}
	sort.Strings(vars) // deterministic error messages
	for _, v := range vars {
		nodes := occ[v]
		inSet := make(map[*Node]bool, len(nodes))
		for _, n := range nodes {
			inSet[n] = true
		}
		rootless := 0
		for _, n := range nodes {
			if n.parent == nil || !inSet[n.parent] {
				rootless++
			}
		}
		if rootless != 1 {
			return fmt.Errorf("core: not well-designed: occurrences of variable %q are disconnected", v)
		}
	}
	seen := make(map[string]bool, len(p.free))
	for _, x := range p.free {
		if seen[x] {
			return fmt.Errorf("core: duplicate free variable %q", x)
		}
		seen[x] = true
		if !mentions[x] {
			return fmt.Errorf("core: free variable %q is not mentioned in the tree", x)
		}
	}
	return nil
}

// Root returns the root node r.
func (p *PatternTree) Root() *Node { return p.root }

// Nodes returns the nodes in preorder. Must not be modified.
func (p *PatternTree) Nodes() []*Node { return p.nodes }

// NumNodes returns the number of nodes of T.
func (p *PatternTree) NumNodes() int { return len(p.nodes) }

// Free returns the free-variable tuple x̄. Must not be modified.
func (p *PatternTree) Free() []string { return p.free }

// FreeSet returns the free variables as a set.
func (p *PatternTree) FreeSet() map[string]bool {
	out := make(map[string]bool, len(p.free))
	for _, x := range p.free {
		out[x] = true
	}
	return out
}

// IsProjectionFree reports whether x̄ contains all variables mentioned in T.
func (p *PatternTree) IsProjectionFree() bool {
	free := p.FreeSet()
	for _, v := range p.Vars() {
		if !free[v] {
			return false
		}
	}
	return true
}

// Vars returns all distinct variables mentioned in the tree.
func (p *PatternTree) Vars() []string {
	return cq.AtomsVars(p.AllAtoms())
}

// AllAtoms returns the atoms of all nodes (deduplicated), i.e. the body of
// the CQ q_T.
func (p *PatternTree) AllAtoms() []cq.Atom {
	var atoms []cq.Atom
	for _, n := range p.nodes {
		atoms = append(atoms, n.atoms...)
	}
	return cq.DedupAtoms(atoms)
}

// Size returns |p|: the size of q_T in standard relational notation.
func (p *PatternTree) Size() int {
	n := 0
	for _, a := range p.AllAtoms() {
		n += 1 + len(a.Args)
	}
	return n
}

// HasConstants reports whether any node label mentions a constant.
func (p *PatternTree) HasConstants() bool {
	for _, a := range p.AllAtoms() {
		for _, t := range a.Args {
			if !t.IsVar() {
				return true
			}
		}
	}
	return false
}

// Clone returns a deep copy of the tree.
func (p *PatternTree) Clone() *PatternTree {
	var spec func(n *Node) NodeSpec
	spec = func(n *Node) NodeSpec {
		s := NodeSpec{Atoms: append([]cq.Atom(nil), n.atoms...)}
		for _, c := range n.children {
			s.Children = append(s.Children, spec(c))
		}
		return s
	}
	return MustNew(spec(p.root), p.free)
}

// String renders the tree with one node per line, indented by depth:
//
//	Ans(x, y): {rec_by(?x, ?y)}
//	  {rating(?x, ?z)}
func (p *PatternTree) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ans(%s):", strings.Join(p.free, ", "))
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("  ", depth))
		parts := make([]string, len(n.atoms))
		for i, a := range n.atoms {
			parts[i] = a.String()
		}
		b.WriteString("{" + strings.Join(parts, ", ") + "}")
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(p.root, 0)
	return b.String()
}

// Subtree is a rooted subtree T' of T: a set of node ids containing the root
// and closed under taking parents.
type Subtree map[int]bool

// Clone returns a copy of the subtree set.
func (s Subtree) Clone() Subtree {
	out := make(Subtree, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// Key renders the subtree as a canonical string usable as a map key.
func (s Subtree) Key() string {
	ids := make([]int, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%d,", id)
	}
	return b.String()
}

// RootSubtree returns the subtree consisting of the root only.
func (p *PatternTree) RootSubtree() Subtree { return Subtree{0: true} }

// FullSubtree returns the subtree consisting of all nodes.
func (p *PatternTree) FullSubtree() Subtree {
	s := make(Subtree, len(p.nodes))
	for _, n := range p.nodes {
		s[n.id] = true
	}
	return s
}

// SubtreeAtoms returns the atoms of the nodes in s, i.e. the body of q_T'.
// The result is memoized per subtree and must not be modified.
func (p *PatternTree) SubtreeAtoms(s Subtree) []cq.Atom {
	return p.subtreeInfoOf(s).atoms
}

// SubtreeVars returns the distinct variables mentioned in s. The result is
// memoized per subtree and must not be modified.
func (p *PatternTree) SubtreeVars(s Subtree) []string {
	return p.subtreeInfoOf(s).vars
}

// SubtreeFreeVars returns x̄ ∩ vars(T') in the order of x̄.
func (p *PatternTree) SubtreeFreeVars(s Subtree) []string {
	inTree := make(map[string]bool)
	for _, v := range p.SubtreeVars(s) {
		inTree[v] = true
	}
	var out []string
	for _, x := range p.free {
		if inTree[x] {
			out = append(out, x)
		}
	}
	return out
}

// SubtreeCQ returns q_T': the CQ whose body is the atoms of s and whose free
// variables are ALL variables of s (used by the homomorphism semantics).
func (p *PatternTree) SubtreeCQ(s Subtree) *cq.CQ {
	atoms := p.SubtreeAtoms(s)
	return cq.MustNew(cq.AtomsVars(atoms), atoms)
}

// SubtreeProjectedCQ returns r_T' (Section 6): like q_T' but projected to
// the free variables of p occurring in T'.
func (p *PatternTree) SubtreeProjectedCQ(s Subtree) *cq.CQ {
	atoms := p.SubtreeAtoms(s)
	return cq.MustNew(p.SubtreeFreeVars(s), atoms)
}

// EnumerateSubtrees visits every subtree of T rooted in r, starting with the
// root-only subtree. visit returning false stops the enumeration. The number
// of subtrees can be exponential in the size of T.
func (p *PatternTree) EnumerateSubtrees(visit func(Subtree) bool) {
	p.enumerateExtensions(p.RootSubtree(), visit)
}

// enumerateExtensions visits base and every rooted subtree extending base.
func (p *PatternTree) enumerateExtensions(base Subtree, visit func(Subtree) bool) {
	// Frontier-based enumeration: at each step, either close the frontier
	// node (never include it or its descendants) or include it and push its
	// children. We process frontier nodes in a fixed order to enumerate
	// every downward-closed superset exactly once.
	var frontier []*Node
	for _, n := range p.nodes {
		if !base[n.id] && n.parent != nil && base[n.parent.id] {
			frontier = append(frontier, n)
		}
	}
	cur := base.Clone()
	stopped := false
	var rec func(i int, frontier []*Node)
	rec = func(i int, frontier []*Node) {
		if stopped {
			return
		}
		if i == len(frontier) {
			if !visit(cur.Clone()) {
				stopped = true
			}
			return
		}
		n := frontier[i]
		// Exclude n (and thus its whole subtree).
		rec(i+1, frontier)
		if stopped {
			return
		}
		// Include n; its children join the remaining frontier.
		cur[n.id] = true
		rec(0, append(append([]*Node(nil), frontier[i+1:]...), n.children...))
		delete(cur, n.id)
	}
	rec(0, frontier)
}

// CountSubtrees returns the number of subtrees of T rooted in r, capped at
// limit (0 means no cap).
func (p *PatternTree) CountSubtrees(limit int) int {
	count := 0
	p.EnumerateSubtrees(func(Subtree) bool {
		count++
		return limit == 0 || count < limit
	})
	return count
}

// MinimalSubtreeContaining returns the unique minimal rooted subtree whose
// nodes mention all the given variables, or ok=false if some variable does
// not occur in T. By well-designedness the topmost node mentioning a
// variable is an ancestor of every node mentioning it, so the minimal
// subtree is the union of the root-paths to those topmost nodes.
func (p *PatternTree) MinimalSubtreeContaining(vars []string) (Subtree, bool) {
	s := p.RootSubtree()
	for _, v := range vars {
		top := p.topmostMentioning(v)
		if top == nil {
			return nil, false
		}
		for n := top; n != nil; n = n.parent {
			s[n.id] = true
		}
	}
	return s, true
}

func (p *PatternTree) topmostMentioning(v string) *Node {
	// Preorder guarantees the first node mentioning v is the topmost one
	// (its occurrence set is connected and preorder visits ancestors first).
	for _, n := range p.nodes {
		for _, w := range n.Vars() {
			if w == v {
				return n
			}
		}
	}
	return nil
}

// MaximalSubtreeWithoutNewFree greedily extends base with every node that
// mentions no free variables outside allowed; the result is the unique
// maximal rooted subtree containing base whose free variables stay within
// allowed. base must itself satisfy the condition.
func (p *PatternTree) MaximalSubtreeWithoutNewFree(base Subtree, allowed map[string]bool) Subtree {
	free := p.FreeSet()
	s := base.Clone()
	ok := func(n *Node) bool {
		for _, v := range n.Vars() {
			if free[v] && !allowed[v] {
				return false
			}
		}
		return true
	}
	changed := true
	for changed {
		changed = false
		for _, n := range p.nodes {
			if s[n.id] || n.parent == nil || !s[n.parent.id] {
				continue
			}
			if ok(n) {
				s[n.id] = true
				changed = true
			}
		}
	}
	return s
}

// Depth returns the depth of the tree: 0 for a single-node tree.
func (p *PatternTree) Depth() int {
	var walk func(n *Node) int
	walk = func(n *Node) int {
		max := 0
		for _, c := range n.children {
			if d := walk(c) + 1; d > max {
				max = d
			}
		}
		return max
	}
	return walk(p.root)
}
