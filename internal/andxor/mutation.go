package andxor

// This file makes validated trees mutable: tuple-probability updates,
// alternative insert/delete, and evidence conditioning in the sense of
// Koch & Olteanu's "Conditioning Probabilistic Databases" — asserting
// evidence is the same operation as an update (condition the and/xor
// representation, then answer queries from the conditioned distribution).
//
// Every mutation goes through Tree.Apply, which validates the update
// against the tree's invariants BEFORE touching any node, mutates in
// place, and returns a Delta describing exactly what changed.  The Delta
// is what the compiled kernel (genfunc.Program.Apply) consumes to patch
// its instruction weights instead of recompiling:
//
//   - weight-only deltas (probability updates, conditioning) list the
//     changed leaf-adjacent or-edges with their new probabilities plus the
//     group's new stop probability — exactly the float64 values a cold
//     Compile of the mutated tree would read, so an in-place weight patch
//     reproduces the cold program bit for bit;
//   - structural deltas (insert/delete) change the leaf set, so the flat
//     instruction numbering shifts and the kernel recompiles.

import (
	"fmt"
	"math"
)

// UpdateKind discriminates the mutation and conditioning operations.
type UpdateKind string

const (
	// UpdateSetProb sets the edge probability of one alternative,
	// optionally renormalizing its xor-group siblings to preserve their
	// proportions (including the stop mass).
	UpdateSetProb UpdateKind = "set-prob"
	// UpdateInsert adds a new alternative to an existing key's block.
	UpdateInsert UpdateKind = "insert"
	// UpdateDelete removes one alternative from its block.
	UpdateDelete UpdateKind = "delete"
	// EvidencePresent conditions on "some alternative of the key is
	// present": the key's edges renormalize to sum 1, sibling edges of
	// other keys in the block drop to 0.
	EvidencePresent UpdateKind = "present"
	// EvidenceAbsent conditions on "no alternative of the key is present":
	// the key's edges drop to 0, the rest of the block renormalizes.
	EvidenceAbsent UpdateKind = "absent"
	// EvidenceChoose conditions on "exactly this alternative is present":
	// its edge becomes 1, every other edge of the block drops to 0.
	EvidenceChoose UpdateKind = "choose"
)

// Update describes one mutation or evidence assertion.  Alternatives are
// identified by (Key, Score) — scores need not be unique across keys, but
// the pair must match exactly one leaf of the key.
type Update struct {
	Kind  UpdateKind
	Key   string
	Score float64 // identifies the alternative (all kinds except present/absent)
	Prob  float64 // set-prob: the new edge probability; insert: the new alternative's
	Label string  // insert: the new alternative's label
	// Renormalize makes set-prob scale the sibling edges (and implicitly
	// the stop mass) by (1-new)/(1-old), preserving their proportions; it
	// requires the target block to consist of leaves only.
	Renormalize bool
}

// Delta reports what a Tree.Apply changed, in the form the compiled
// kernel's patch path consumes.
type Delta struct {
	// Structural is true for insert/delete: the leaf set changed and
	// compiled programs must be rebuilt.  Weight-only deltas (false) are
	// fully described by Group/Leaves/Probs/Stop.
	Structural bool
	// Keys lists the keys whose marginal presence probability changed;
	// Removed lists keys that disappeared entirely (a delete of a key's
	// last alternative).
	Keys    []string
	Removed []string

	// For weight-only deltas: Group is the or-node whose edges changed,
	// Leaves the DFS leaf indices of the changed leaf-adjacent edges,
	// Probs the new edge probabilities (parallel to Leaves), and Stop the
	// group's new stop probability.  All values are read back from the
	// mutated nodes, so they are bitwise the weights a cold compile sees.
	Group  *Node
	Leaves []int
	Probs  []float64
	Stop   float64
}

// Apply mutates the tree in place according to u and returns a Delta
// describing the change.  The update is validated first: on error the tree
// is untouched.  Apply is NOT safe for concurrent use with readers of the
// same tree; the engine serializes mutations against queries per tree.
func (t *Tree) Apply(u Update) (*Delta, error) {
	var d *Delta
	var err error
	switch u.Kind {
	case UpdateSetProb:
		d, err = t.applySetProb(u)
	case UpdateInsert:
		d, err = t.applyInsert(u)
	case UpdateDelete:
		d, err = t.applyDelete(u)
	case EvidencePresent, EvidenceAbsent, EvidenceChoose:
		d, err = t.applyCondition(u)
	default:
		return nil, fmt.Errorf("andxor: unknown update kind %q", u.Kind)
	}
	if err != nil {
		return nil, err
	}
	t.stamp = stamps.Add(1)
	return d, nil
}

// ApplyAll applies a batch of updates atomically: either every update
// applies (in order) or none does.  The batch runs against a scratch
// clone first, so a failing update leaves t untouched instead of
// half-applied; a fully successful batch is then adopted with the *Tree
// pointer (and everything keyed on it) kept stable.  The returned deltas
// are one per update, against the evolving tree state — exactly what the
// same sequence of Apply calls would have produced.
func (t *Tree) ApplyAll(us []Update) ([]*Delta, error) {
	if len(us) == 0 {
		return nil, nil
	}
	if len(us) == 1 {
		d, err := t.Apply(us[0])
		if err != nil {
			return nil, err
		}
		return []*Delta{d}, nil
	}
	c := t.Clone()
	ds := make([]*Delta, len(us))
	for i, u := range us {
		d, err := c.Apply(u)
		if err != nil {
			return nil, fmt.Errorf("andxor: batch update %d (%s %q): %w", i, u.Kind, u.Key, err)
		}
		ds[i] = d
	}
	*t = *c
	return ds, nil
}

// findAlt locates the leaf of (key, score), returning its DFS index.
func (t *Tree) findAlt(key string, score float64) (int, error) {
	idxs, ok := t.keyLeaves[key]
	if !ok {
		return 0, fmt.Errorf("andxor: unknown key %q", key)
	}
	found := -1
	for _, li := range idxs {
		if t.leaves[li].leaf.Score == score {
			if found >= 0 {
				return 0, fmt.Errorf("andxor: key %q has several alternatives with score %v", key, score)
			}
			found = li
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("andxor: key %q has no alternative with score %v", key, score)
	}
	return found, nil
}

// childIndex returns the position of child c among n's children.
func childIndex(n, c *Node) int {
	for i, ch := range n.children {
		if ch == c {
			return i
		}
	}
	panic("andxor: node is not a child of its parent")
}

// orParent returns the or-node owning the leaf's edge probability, or an
// error when the alternative carries no probability of its own (a leaf
// directly under an and-node, or a single-leaf tree).
func (t *Tree) orParent(li int) (*Node, int, error) {
	leaf := t.leaves[li]
	par := leaf.parent
	if par == nil || par.kind != KindOr {
		return nil, 0, fmt.Errorf("andxor: alternative %v carries no edge probability of its own (its parent is not an or-node)", leaf.leaf)
	}
	return par, childIndex(par, leaf), nil
}

// leafBlock collects the DFS leaf indices of group's children, failing if
// any child is an internal node.  Renormalizing and conditioning rewrite
// every edge of the group, and only leaf-adjacent edges are patchable in a
// compiled program, so those operations require an all-leaf block (the
// shape every BID/x-tuple block has).
func (t *Tree) leafBlock(group *Node, op string) ([]int, error) {
	out := make([]int, len(group.children))
	for i, c := range group.children {
		if c.kind != KindLeaf {
			return nil, fmt.Errorf("andxor: %s requires a block of leaf alternatives, but the group has an internal %s child; re-register a conditioned tree instead", op, c.kind)
		}
		out[i] = t.leafIndex[c]
	}
	return out, nil
}

// weightDelta builds the weight-only Delta for group after its probs were
// rewritten: all leaf children with their current edge probabilities, the
// recomputed stop mass, and the distinct keys under the group.
func (t *Tree) weightDelta(group *Node, leaves []int) *Delta {
	d := &Delta{
		Group:  group,
		Leaves: leaves,
		Probs:  make([]float64, len(leaves)),
		Stop:   group.StopProb(),
	}
	seen := make(map[string]bool, 2)
	for i, li := range leaves {
		d.Probs[i] = group.probs[childIndex(group, t.leaves[li])]
		if k := t.leaves[li].leaf.Key; !seen[k] {
			seen[k] = true
			d.Keys = append(d.Keys, k)
		}
	}
	return d
}

func validProb(p float64) error {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("andxor: probability %v must lie in [0, 1]", p)
	}
	return nil
}

func (t *Tree) applySetProb(u Update) (*Delta, error) {
	if err := validProb(u.Prob); err != nil {
		return nil, err
	}
	li, err := t.findAlt(u.Key, u.Score)
	if err != nil {
		return nil, err
	}
	group, ci, err := t.orParent(li)
	if err != nil {
		return nil, err
	}
	old := group.probs[ci]
	if u.Renormalize {
		leaves, err := t.leafBlock(group, "renormalizing set-prob")
		if err != nil {
			return nil, err
		}
		// Scale every sibling edge by (1-new)/(1-old) so the siblings and
		// the stop mass keep their proportions.  When the old edge held
		// the entire mass (old == 1) there are no proportions to keep:
		// siblings stay 0 and the stop mass absorbs the freed probability.
		if old < 1 {
			scale := (1 - u.Prob) / (1 - old)
			for j := range group.probs {
				if j != ci {
					group.probs[j] *= scale
				}
			}
		}
		group.probs[ci] = u.Prob
		// The rescale's fixed point is a block carrying its full mass: if
		// the edges summed to exactly 1 before, they sum to 1 after, and
		// each renormalization adds fresh rounding noise around that
		// fixed point.  A long stream of renormalizing updates can drift
		// the float sum past 1+probSlack, producing a tree that fails its
		// own validation (Clone panics).  Pull the block back onto the
		// simplex whenever rounding pushes it over.
		sum := 0.0
		for _, p := range group.probs {
			sum += p
		}
		if sum > 1 {
			for j := range group.probs {
				group.probs[j] /= sum
			}
		}
		return t.weightDelta(group, leaves), nil
	}
	sum := u.Prob
	for j, p := range group.probs {
		if j != ci {
			sum += p
		}
	}
	if sum > 1+probSlack {
		return nil, fmt.Errorf("andxor: setting %v's edge to %v makes the block sum to %v > 1 (pass renormalize to rescale the siblings)", t.leaves[li].leaf, u.Prob, sum)
	}
	group.probs[ci] = u.Prob
	return &Delta{
		Keys:   []string{u.Key},
		Group:  group,
		Leaves: []int{li},
		Probs:  []float64{group.probs[ci]},
		Stop:   group.StopProb(),
	}, nil
}

func (t *Tree) applyInsert(u Update) (*Delta, error) {
	if err := validProb(u.Prob); err != nil {
		return nil, err
	}
	idxs, ok := t.keyLeaves[u.Key]
	if !ok {
		return nil, fmt.Errorf("andxor: unknown key %q; insert adds an alternative to an existing tuple (register a new tree to add tuples)", u.Key)
	}
	group := t.leaves[idxs[0]].parent
	if group == nil || group.kind != KindOr {
		return nil, fmt.Errorf("andxor: key %q is not held by an or-block; cannot insert an alternative", u.Key)
	}
	for _, li := range idxs[1:] {
		if t.leaves[li].parent != group {
			return nil, fmt.Errorf("andxor: key %q's alternatives span several or-nodes; cannot insert an alternative", u.Key)
		}
	}
	for _, li := range idxs {
		if t.leaves[li].leaf.Score == u.Score {
			return nil, fmt.Errorf("andxor: key %q already has an alternative with score %v", u.Key, u.Score)
		}
	}
	sum := u.Prob
	for _, p := range group.probs {
		sum += p
	}
	if sum > 1+probSlack {
		return nil, fmt.Errorf("andxor: inserting with probability %v makes the block sum to %v > 1", u.Prob, sum)
	}
	leaf := t.leaves[idxs[0]].leaf
	leaf.Score = u.Score
	leaf.Label = u.Label
	group.children = append(group.children, NewLeaf(leaf))
	group.probs = append(group.probs, u.Prob)
	if err := t.rebuild(); err != nil {
		return nil, err
	}
	return &Delta{Structural: true, Keys: []string{u.Key}}, nil
}

func (t *Tree) applyDelete(u Update) (*Delta, error) {
	li, err := t.findAlt(u.Key, u.Score)
	if err != nil {
		return nil, err
	}
	group, ci, err := t.orParent(li)
	if err != nil {
		return nil, fmt.Errorf("andxor: alternative %v is not optional (its parent is not an or-node); cannot delete it", t.leaves[li].leaf)
	}
	if len(group.children) == 1 {
		return nil, fmt.Errorf("andxor: deleting %v would leave an empty or-node; condition the key absent or re-register instead", t.leaves[li].leaf)
	}
	group.children = append(group.children[:ci], group.children[ci+1:]...)
	group.probs = append(group.probs[:ci], group.probs[ci+1:]...)
	if err := t.rebuild(); err != nil {
		return nil, err
	}
	d := &Delta{Structural: true, Keys: []string{u.Key}}
	if _, ok := t.keyLeaves[u.Key]; !ok {
		d.Keys = nil
		d.Removed = []string{u.Key}
	}
	return d, nil
}

func (t *Tree) applyCondition(u Update) (*Delta, error) {
	idxs, ok := t.keyLeaves[u.Key]
	if !ok {
		return nil, fmt.Errorf("andxor: unknown key %q", u.Key)
	}
	group := t.leaves[idxs[0]].parent
	if group == nil || group.kind != KindOr {
		return nil, fmt.Errorf("andxor: key %q is not held by an or-block; cannot condition on it", u.Key)
	}
	for _, li := range idxs[1:] {
		if t.leaves[li].parent != group {
			return nil, fmt.Errorf("andxor: key %q's alternatives span several or-nodes; cannot condition on it", u.Key)
		}
	}
	// Conditioning rescales only this block, which is Bayes-correct
	// exactly when the block is unconditionally materialized: every
	// ancestor must be an and-node (the Koch-Olteanu local-conditioning
	// case).  A block under an or-ancestor would need the whole tree
	// renormalized.
	for a := group.parent; a != nil; a = a.parent {
		if a.kind != KindAnd {
			return nil, fmt.Errorf("andxor: key %q's block sits under an or-ancestor, so evidence requires global renormalization; re-register a conditioned tree instead", u.Key)
		}
	}
	leaves, err := t.leafBlock(group, "conditioning")
	if err != nil {
		return nil, err
	}
	isKey := make([]bool, len(group.children))
	keyMass := 0.0
	for i, li := range leaves {
		if t.leaves[li].leaf.Key == u.Key {
			isKey[i] = true
			keyMass += group.probs[i]
		}
	}
	switch u.Kind {
	case EvidencePresent:
		if keyMass <= 0 {
			return nil, fmt.Errorf("andxor: evidence %q present has probability 0", u.Key)
		}
		for i := range group.probs {
			if isKey[i] {
				group.probs[i] /= keyMass
			} else {
				group.probs[i] = 0
			}
		}
	case EvidenceAbsent:
		rest := 1 - keyMass
		if rest <= 0 {
			return nil, fmt.Errorf("andxor: evidence %q absent has probability 0", u.Key)
		}
		for i := range group.probs {
			if isKey[i] {
				group.probs[i] = 0
			} else {
				group.probs[i] /= rest
			}
		}
	case EvidenceChoose:
		li, err := t.findAlt(u.Key, u.Score)
		if err != nil {
			return nil, err
		}
		ci := childIndex(group, t.leaves[li])
		if group.probs[ci] <= 0 {
			return nil, fmt.Errorf("andxor: evidence choosing %v has probability 0", t.leaves[li].leaf)
		}
		for i := range group.probs {
			group.probs[i] = 0
		}
		group.probs[ci] = 1
	}
	return t.weightDelta(group, leaves), nil
}

// rebuild re-validates and re-indexes the tree after a structural
// mutation, keeping the *Tree pointer stable for its holders (the engine
// entry).  The mutation entry points pre-validate, so a failure here means
// a bug; the error is still surfaced rather than swallowed.
func (t *Tree) rebuild() error {
	nt, err := New(t.root)
	if err != nil {
		return fmt.Errorf("andxor: tree invalid after structural mutation: %w", err)
	}
	*t = *nt
	return nil
}
