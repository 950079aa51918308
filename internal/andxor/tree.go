package andxor

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"

	"consensus/internal/types"
)

// probSlack is the tolerance allowed when checking that or-edge
// probabilities sum to at most one; it absorbs float artifacts in callers
// that construct probabilities arithmetically.
const probSlack = 1e-9

// Tree is a validated probabilistic and/xor tree.  Construct with New (or
// the builders in builders.go); a validated tree guarantees:
//
//   - every or-node has non-negative edge probabilities summing to <= 1
//     (the probability constraint of Definition 1), and
//   - the least common ancestor of any two leaves sharing a key is an
//     or-node (the key constraint), so no possible world holds two
//     alternatives of one tuple.
type Tree struct {
	root     *Node
	leaves   []*Node      // all leaves in DFS order
	leafAlts []types.Leaf // parallel to leaves; memoized for the hot loops
	keys     []string     // distinct keys, sorted

	// keyLeaves maps each key to the DFS indices of its leaves, and
	// leafIndex inverts leaves; both serve the mutation and conditioning
	// entry points (mutation.go) and the per-key marginal patching the
	// engine's delta path relies on.
	keyLeaves map[string][]int
	leafIndex map[*Node]int

	// stamp identifies the tree's current content: New draws a fresh one
	// and every successful Apply draws another, so caches keyed by the
	// *Tree pointer (the genfunc program memo) can tell an in-place
	// mutation from an unchanged tree.
	stamp uint64
}

// stamps is the process-wide source of Tree stamps; a stamp is never
// drawn twice.
var stamps atomic.Uint64

// New validates the DAG-free tree rooted at root and returns it as a Tree.
// Validation also wires parent pointers, so nodes must belong to exactly
// one tree.
func New(root *Node) (*Tree, error) {
	if root == nil {
		return nil, fmt.Errorf("andxor: nil root")
	}
	t := &Tree{root: root, stamp: stamps.Add(1)}
	seen := make(map[*Node]bool)
	keySet := make(map[string]bool)
	root.parent = nil
	if _, err := t.validate(root, seen, keySet); err != nil {
		return nil, err
	}
	t.keys = make([]string, 0, len(keySet))
	for k := range keySet {
		t.keys = append(t.keys, k)
	}
	sort.Strings(t.keys)
	t.leafAlts = make([]types.Leaf, len(t.leaves))
	t.keyLeaves = make(map[string][]int, len(keySet))
	t.leafIndex = make(map[*Node]int, len(t.leaves))
	for i, n := range t.leaves {
		t.leafAlts[i] = n.leaf
		t.keyLeaves[n.leaf.Key] = append(t.keyLeaves[n.leaf.Key], i)
		t.leafIndex[n] = i
	}
	return t, nil
}

// MustNew is New that panics on validation errors; for tests and trusted
// builders.
func MustNew(root *Node) *Tree {
	t, err := New(root)
	if err != nil {
		panic(err)
	}
	return t
}

// validate walks the subtree, collecting leaves, checking the probability
// constraint, checking for sharing (each node must appear once), and
// returning the multiset of keys occurring in the subtree so the key
// constraint can be enforced at and-nodes.
func (t *Tree) validate(n *Node, seen map[*Node]bool, keySet map[string]bool) (map[string]bool, error) {
	if n == nil {
		return nil, fmt.Errorf("andxor: nil node")
	}
	if seen[n] {
		return nil, fmt.Errorf("andxor: node %p appears more than once; the model is a tree, not a DAG", n)
	}
	seen[n] = true
	switch n.kind {
	case KindLeaf:
		if len(n.children) != 0 || len(n.probs) != 0 {
			return nil, fmt.Errorf("andxor: leaf node with children")
		}
		if n.leaf.Key == "" {
			return nil, fmt.Errorf("andxor: leaf with empty key")
		}
		keySet[n.leaf.Key] = true
		t.leaves = append(t.leaves, n)
		return map[string]bool{n.leaf.Key: true}, nil
	case KindAnd:
		if len(n.probs) != 0 {
			return nil, fmt.Errorf("andxor: and-node carries probabilities")
		}
		if len(n.children) == 0 {
			return nil, fmt.Errorf("andxor: and-node with no children")
		}
		keys := make(map[string]bool)
		for _, c := range n.children {
			if c != nil {
				c.parent = n
			}
			ck, err := t.validate(c, seen, keySet)
			if err != nil {
				return nil, err
			}
			for k := range ck {
				if keys[k] {
					// Two children of this and-node both contain key k, so
					// the LCA of two k-leaves is this and-node: the key
					// constraint is violated.
					return nil, fmt.Errorf("andxor: key constraint violated: key %q occurs under two children of an and-node", k)
				}
				keys[k] = true
			}
		}
		return keys, nil
	case KindOr:
		if len(n.children) != len(n.probs) {
			return nil, fmt.Errorf("andxor: or-node has %d children but %d probabilities", len(n.children), len(n.probs))
		}
		if len(n.children) == 0 {
			return nil, fmt.Errorf("andxor: or-node with no children")
		}
		sum := 0.0
		for _, p := range n.probs {
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return nil, fmt.Errorf("andxor: invalid edge probability %v", p)
			}
			sum += p
		}
		if sum > 1+probSlack {
			return nil, fmt.Errorf("andxor: or-node edge probabilities sum to %v > 1", sum)
		}
		keys := make(map[string]bool)
		for _, c := range n.children {
			if c != nil {
				c.parent = n
			}
			ck, err := t.validate(c, seen, keySet)
			if err != nil {
				return nil, err
			}
			for k := range ck {
				keys[k] = true
			}
		}
		return keys, nil
	default:
		return nil, fmt.Errorf("andxor: unknown node kind %v", n.kind)
	}
}

// Root returns the root node.
func (t *Tree) Root() *Node { return t.root }

// Leaves returns all leaf nodes in depth-first order.  Callers must not
// modify the returned slice.
func (t *Tree) Leaves() []*Node { return t.leaves }

// LeafAlternatives returns the tuple alternatives at the leaves, in
// depth-first order (parallel to Leaves).  The slice is built once at
// validation time and shared across calls — it sits inside the hottest
// loops (rank kernels, score validation) — so callers must not modify it.
func (t *Tree) LeafAlternatives() []types.Leaf {
	return t.leafAlts
}

// Keys returns the distinct tuple keys appearing in the tree, sorted.
// Callers must not modify the returned slice.
func (t *Tree) Keys() []string { return t.keys }

// NumLeaves returns the number of tuple alternatives in the tree.
func (t *Tree) NumLeaves() int { return len(t.leaves) }

// Stamp returns the tree's mutation stamp: it changes on every successful
// Apply or ApplyAll and is never reused by another tree state, while a
// Clone carries its source's stamp.  Equal stamps on one *Tree therefore
// mean unchanged content.
func (t *Tree) Stamp() uint64 { return t.stamp }

// MarginalProbs returns, for every leaf (indexed as in Leaves), the
// probability that this exact alternative is present in a random possible
// world.  Because choices at or-nodes are independent, a leaf is present
// exactly when every or-ancestor selects the child on the leaf's path, so
// its marginal is the product of the edge probabilities along that path.
func (t *Tree) MarginalProbs() []float64 {
	out := make([]float64, 0, len(t.leaves))
	var walk func(n *Node, p float64)
	walk = func(n *Node, p float64) {
		switch n.kind {
		case KindLeaf:
			out = append(out, p)
		case KindAnd:
			for _, c := range n.children {
				walk(c, p)
			}
		case KindOr:
			for i, c := range n.children {
				walk(c, p*n.probs[i])
			}
		}
	}
	walk(t.root, 1)
	return out
}

// KeyMarginals returns for every key the probability that some alternative
// of that key is present (i.e. Pr(t) in the paper's notation).
func (t *Tree) KeyMarginals() map[string]float64 {
	m := make(map[string]float64, len(t.keys))
	probs := t.MarginalProbs()
	for i, n := range t.leaves {
		m[n.leaf.Key] += probs[i]
	}
	return m
}

// KeyMarginal returns the marginal presence probability of one key and
// whether the key exists.  The per-leaf products multiply the or-edge
// probabilities in the same top-down order as MarginalProbs and the leaves
// sum in DFS order, so a patched marginal is bit-identical to the value a
// full KeyMarginals recomputation would produce — the invariant the
// engine's delta path relies on when it patches cached membership maps.
func (t *Tree) KeyMarginal(key string) (float64, bool) {
	idxs, ok := t.keyLeaves[key]
	if !ok {
		return 0, false
	}
	sum := 0.0
	var edges []float64
	for _, li := range idxs {
		edges = edges[:0]
		for c := t.leaves[li]; c.parent != nil; c = c.parent {
			if par := c.parent; par.kind == KindOr {
				edges = append(edges, par.probs[childIndex(par, c)])
			}
		}
		p := 1.0
		for j := len(edges) - 1; j >= 0; j-- {
			p *= edges[j]
		}
		sum += p
	}
	return sum, true
}

// Clone returns a deep copy of the tree: fresh nodes, identical structure,
// probabilities and leaf alternatives.  Mutating the clone (or the
// original) leaves the other untouched, which is how the engine takes
// ownership of a caller-supplied tree before its first in-place mutation.
func (t *Tree) Clone() *Tree {
	var cp func(n *Node) *Node
	cp = func(n *Node) *Node {
		m := &Node{kind: n.kind, leaf: n.leaf}
		if len(n.children) > 0 {
			m.children = make([]*Node, len(n.children))
			for i, c := range n.children {
				m.children[i] = cp(c)
			}
		}
		if len(n.probs) > 0 {
			m.probs = append([]float64(nil), n.probs...)
		}
		return m
	}
	nt, err := New(cp(t.root))
	if err != nil {
		// t passed validation and the copy is structurally identical.
		panic(fmt.Sprintf("andxor: cloning a valid tree failed validation: %v", err))
	}
	nt.stamp = t.stamp
	return nt
}

// Sample draws one possible world according to the tree's distribution,
// using rng as the randomness source.
func (t *Tree) Sample(rng *rand.Rand) *types.World {
	w := &types.World{}
	var walk func(n *Node)
	walk = func(n *Node) {
		switch n.kind {
		case KindLeaf:
			w.Add(n.leaf)
		case KindAnd:
			for _, c := range n.children {
				walk(c)
			}
		case KindOr:
			u := rng.Float64()
			acc := 0.0
			for i, c := range n.children {
				acc += n.probs[i]
				if u < acc {
					walk(c)
					return
				}
			}
			// fall through: select nothing
		}
	}
	walk(t.root)
	return w
}

// ScoresDistinctAcrossKeys reports whether no two alternatives of different
// keys share a score, the no-ties assumption Section 5 makes for ranking
// queries.
func (t *Tree) ScoresDistinctAcrossKeys() bool {
	byScore := make(map[float64]string, len(t.leaves))
	for _, n := range t.leaves {
		if k, ok := byScore[n.leaf.Score]; ok && k != n.leaf.Key {
			return false
		}
		byScore[n.leaf.Score] = n.leaf.Key
	}
	return true
}

// String renders the tree in a compact s-expression form, e.g.
// (and (or 0.5:t1(8) 0.5:t1(2)) (or 1:t4(6))).
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *Node)
	walk = func(n *Node) {
		switch n.kind {
		case KindLeaf:
			b.WriteString(n.leaf.String())
		case KindAnd:
			b.WriteString("(and")
			for _, c := range n.children {
				b.WriteByte(' ')
				walk(c)
			}
			b.WriteByte(')')
		case KindOr:
			b.WriteString("(or")
			for i, c := range n.children {
				fmt.Fprintf(&b, " %g:", n.probs[i])
				walk(c)
			}
			b.WriteByte(')')
		}
	}
	walk(t.root)
	return b.String()
}
