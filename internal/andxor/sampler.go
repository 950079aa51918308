package andxor

import (
	"context"
	"math/rand"
	"slices"

	"consensus/internal/types"
)

// Sampler is a tree compiled for high-throughput world sampling: the nodes
// are flattened into one preorder array, and a drawn world is reported as
// the indices of its present leaves (depth-first numbering, as in
// Tree.Leaves) appended to a caller-owned buffer, so a draw costs no
// allocation.  A Sampler is read-only after NewSampler and safe for
// concurrent use with one *rand.Rand per goroutine.  It copies the tree's
// shape but shares its edge probabilities, so it is valid only until the
// tree's next mutation.
type Sampler struct {
	alts    []types.Leaf // leaf index -> alternative
	keys    []string     // distinct tuple keys, sorted (as in Tree.Keys)
	leafKey []int32      // leaf index -> key index
	byScore []int32      // leaf indices by decreasing score (ties: key asc)
	nodes   []snode      // preorder: a node's subtree is nodes[i:end]
}

// snode is one flattened tree node.  Its first child, if any, is the next
// node, and each child's subtree ends where the next sibling starts.
type snode struct {
	kind  Kind
	leaf  int32     // leaf index, KindLeaf only
	end   int32     // index just past the node's subtree
	probs []float64 // or-edge probabilities, one per child, KindOr only
}

// NewSampler compiles the tree.  Its draws consume one rng.Float64() per
// visited or-node in depth-first order, so a seed fixes the drawn worlds.
func NewSampler(t *Tree) *Sampler {
	s := &Sampler{
		alts:    t.leafAlts,
		keys:    t.keys,
		leafKey: make([]int32, len(t.leaves)),
		byScore: make([]int32, len(t.leaves)),
	}
	for ki, key := range t.keys {
		for _, li := range t.keyLeaves[key] {
			s.leafKey[li] = int32(ki)
		}
	}
	var leaves int32
	var compile func(n *Node)
	compile = func(n *Node) {
		idx := len(s.nodes)
		s.nodes = append(s.nodes, snode{kind: n.kind, leaf: leaves, probs: n.probs})
		if n.kind == KindLeaf {
			leaves++
		}
		for _, c := range n.children {
			compile(c)
		}
		s.nodes[idx].end = int32(len(s.nodes))
	}
	compile(t.root)
	for i := range s.byScore {
		s.byScore[i] = int32(i)
	}
	slices.SortFunc(s.byScore, func(a, b int32) int {
		switch sa, sb := s.alts[a].Score, s.alts[b].Score; {
		case sa > sb:
			return -1
		case sa < sb:
			return 1
		}
		return int(s.leafKey[a] - s.leafKey[b]) // keys are sorted: index order is key order
	})
	return s
}

// NumLeaves returns the number of leaves, the bound on every leaf index.
func (s *Sampler) NumLeaves() int { return len(s.alts) }

// Keys returns the distinct tuple keys, sorted.  Callers must not modify
// the returned slice.
func (s *Sampler) Keys() []string { return s.keys }

// LeafKeys maps each leaf index to the index of its key in Keys.  Callers
// must not modify the returned slice.
func (s *Sampler) LeafKeys() []int32 { return s.leafKey }

// SampleInto draws one world and appends its present leaf indices to buf
// in depth-first order, returning the extended buffer.
func (s *Sampler) SampleInto(rng *rand.Rand, buf []int32) []int32 {
	nodes := s.nodes
	// walk visits the subtrees in nodes[i:end] in preorder.  An and-node
	// needs no work of its own (its children follow it); an or-node picks
	// at most one child, walks only that child's subtree (appending a leaf
	// child directly, the common case, without a call) and skips the rest
	// of its own.
	var walk func(i, end int32)
	walk = func(i, end int32) {
		for i < end {
			n := &nodes[i]
			switch n.kind {
			case KindLeaf:
				buf = append(buf, n.leaf)
				i++
			case KindAnd:
				i++
			default: // KindOr
				u := rng.Float64()
				acc := 0.0
				c := i + 1 // first child; each next sibling starts at nodes[c].end
				for _, p := range n.probs {
					acc += p
					if u < acc {
						if ch := &nodes[c]; ch.kind == KindLeaf {
							buf = append(buf, ch.leaf)
						} else {
							walk(c, ch.end)
						}
						break
					}
					c = nodes[c].end
				}
				i = n.end
			}
		}
	}
	walk(0, int32(len(nodes)))
	return buf
}

// drawCheckEvery is how many draws Draw makes between cancellation
// checks: often enough that cancellation lands promptly, rarely enough
// that the check disappears next to the draws.
const drawCheckEvery = 256

// Draw draws n worlds with rng and passes each one's leaf indices, as
// SampleInto reports them and valid only during the call, to observe.  It
// checks ctx before the first draw and every drawCheckEvery draws after
// it, returning the context's error unwrapped once it is done.
func (s *Sampler) Draw(ctx context.Context, n int, rng *rand.Rand, observe func(world []int32)) error {
	var buf []int32
	for i := 0; i < n; i++ {
		if i%drawCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		buf = s.SampleInto(rng, buf[:0])
		observe(buf)
	}
	return nil
}

// RankedKeys appends to out the key indices (into Keys) of the first
// limit leaves of world (as drawn by SampleInto) in decreasing score
// order, ties broken by key, and returns the extended buffer: the top of
// the world's ranking, one entry per present key.  The score-order scan
// stops at the limit-th present leaf, so a dense world with a small limit
// costs O(limit/density) rather than O(NumLeaves).  present is
// caller-owned scratch of length NumLeaves, all false on entry and again
// on return.
func (s *Sampler) RankedKeys(world []int32, limit int, present []bool, out []int32) []int32 {
	limit = min(limit, len(world))
	if limit <= 0 {
		return out
	}
	for _, li := range world {
		present[li] = true
	}
	n := 0
	for _, li := range s.byScore {
		if present[li] {
			out = append(out, s.leafKey[li])
			if n++; n == limit {
				break
			}
		}
	}
	for _, li := range world {
		present[li] = false
	}
	return out
}

// World materializes a drawn world as a *types.World, for callers whose
// observable takes one.
func (s *Sampler) World(leaves []int32) *types.World {
	w := types.NewWorldCap(len(leaves))
	for _, li := range leaves {
		w.Add(s.alts[li])
	}
	return w
}
