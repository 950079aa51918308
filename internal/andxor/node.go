// Package andxor implements the probabilistic and/xor tree model of
// Section 3.2 of the paper.
//
// An and/xor tree represents a probabilistic relation with both tuple-level
// and attribute-level uncertainty.  Leaves are tuple alternatives
// (key/value pairs).  An "or" node (the paper's circled-or) chooses at most
// one of its children: child i is selected with the probability attached to
// its edge, and with the remaining probability the node produces nothing.
// An "and" node (circled-and) produces the union of what all its children
// produce; its children coexist.  Choices at distinct or-nodes are mutually
// independent.
//
// The model strictly generalizes tuple-independent databases, x-tuples,
// p-or-sets and the block-independent disjoint (BID) scheme, and can encode
// an arbitrary finite distribution over possible worlds (Figure 1 of the
// paper shows both an independent instance and a fully-correlated one).
//
// Sampler (sampler.go) is the repository's one world-sampling walk: a
// tree compiled into flat nodes that draws worlds as leaf-index buffers.
package andxor

import (
	"fmt"

	"consensus/internal/types"
)

// Kind discriminates the three node types of an and/xor tree.
type Kind uint8

const (
	// KindLeaf marks a tuple-alternative leaf.
	KindLeaf Kind = iota
	// KindAnd marks a coexistence node: all children are produced.
	KindAnd
	// KindOr marks a mutual-exclusion node: at most one child is produced.
	KindOr
)

// String returns "leaf", "and" or "or".
func (k Kind) String() string {
	switch k {
	case KindLeaf:
		return "leaf"
	case KindAnd:
		return "and"
	case KindOr:
		return "or"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Node is a single node of an and/xor tree.  Nodes belong to exactly one
// Tree; building happens through the constructors below and validation
// through New.  After construction a tree changes only through the
// mutation entry points on Tree (Apply in mutation.go), which keep the
// validated invariants intact.
type Node struct {
	kind     Kind
	leaf     types.Leaf
	children []*Node
	probs    []float64 // parallel to children; KindOr only
	parent   *Node     // set by New; nil at the root
}

// NewLeaf returns a leaf node for the given tuple alternative.
func NewLeaf(l types.Leaf) *Node {
	return &Node{kind: KindLeaf, leaf: l}
}

// NewAnd returns a coexistence node over the given children.
func NewAnd(children ...*Node) *Node {
	return &Node{kind: KindAnd, children: children}
}

// NewOr returns a mutual-exclusion node; probs[i] is the probability of
// selecting children[i].  Validation of the probability constraint
// (non-negative entries summing to at most 1) happens in New.
func NewOr(children []*Node, probs []float64) *Node {
	return &Node{kind: KindOr, children: children, probs: probs}
}

// Kind returns the node's kind.
func (n *Node) Kind() Kind { return n.kind }

// Leaf returns the tuple alternative of a KindLeaf node; it panics on other
// kinds, which indicates a programming error in the caller.
func (n *Node) Leaf() types.Leaf {
	if n.kind != KindLeaf {
		panic("andxor: Leaf called on non-leaf node")
	}
	return n.leaf
}

// Children returns the node's children.  Callers must not modify the
// returned slice.
func (n *Node) Children() []*Node { return n.children }

// Probs returns the edge probabilities of a KindOr node, parallel to
// Children.  Callers must not modify the returned slice.
func (n *Node) Probs() []float64 { return n.probs }

// StopProb returns the probability that an or-node selects none of its
// children (1 minus the sum of its edge probabilities); it panics on other
// kinds.
func (n *Node) StopProb() float64 {
	if n.kind != KindOr {
		panic("andxor: StopProb called on non-or node")
	}
	s := 0.0
	for _, p := range n.probs {
		s += p
	}
	if s > 1 {
		s = 1
	}
	return 1 - s
}
