// Package types defines the primitive value types shared by every other
// package in the repository: tuple alternatives (leaves of and/xor trees),
// deterministic possible worlds, and the elementary set distances between
// worlds used in Section 4 of the paper.
//
// A probabilistic relation R^P(K; A) has tuples identified by a possible
// worlds key K and carrying an uncertain value attribute A.  A concrete
// (key, value) pair is a tuple "alternative"; a possible world is a set of
// alternatives in which every key occurs at most once.
package types

import (
	"fmt"
	"sort"
	"strings"
)

// Leaf is one tuple alternative: a concrete binding of a possible-worlds key
// to a value attribute.  The value attribute is carried in two forms because
// the paper's query classes read it differently: ranking queries (Section 5)
// read Score, while group-by aggregates and clustering (Section 6) read
// Label.  Either may be left at its zero value when unused.
type Leaf struct {
	// Key is the possible-worlds key of the tuple this alternative
	// belongs to.  Two alternatives with equal keys are mutually
	// exclusive in every possible world.
	Key string
	// Score is the numeric value attribute used by top-k queries.
	Score float64
	// Label is the categorical value attribute used by group-by and
	// clustering queries.
	Label string
}

// String renders the alternative as key(score,label), omitting unused parts.
func (l Leaf) String() string {
	switch {
	case l.Label == "":
		return fmt.Sprintf("%s(%g)", l.Key, l.Score)
	case l.Score == 0:
		return fmt.Sprintf("%s(%s)", l.Key, l.Label)
	default:
		return fmt.Sprintf("%s(%g,%s)", l.Key, l.Score, l.Label)
	}
}

// World is a deterministic possible world: a set of alternatives with
// pairwise distinct keys.  The zero value is an empty world ready to use.
type World struct {
	byKey map[string]Leaf
}

// NewWorld builds a world from the given alternatives.  It returns an error
// if two alternatives share a key, which would violate the possible-worlds
// key constraint of Section 3.1.
func NewWorld(leaves ...Leaf) (*World, error) {
	w := &World{byKey: make(map[string]Leaf, len(leaves))}
	for _, l := range leaves {
		if prev, ok := w.byKey[l.Key]; ok && prev != l {
			return nil, fmt.Errorf("types: world holds two alternatives for key %q: %v and %v", l.Key, prev, l)
		}
		w.byKey[l.Key] = l
	}
	return w, nil
}

// NewWorldCap returns an empty world presized for n alternatives.
func NewWorldCap(n int) *World {
	return &World{byKey: make(map[string]Leaf, n)}
}

// MustWorld is NewWorld that panics on key conflicts; intended for tests and
// package-internal construction from already-validated data.
func MustWorld(leaves ...Leaf) *World {
	w, err := NewWorld(leaves...)
	if err != nil {
		panic(err)
	}
	return w
}

// Add inserts an alternative, replacing any previous alternative of the same
// key.  It reports whether a previous alternative was replaced.
func (w *World) Add(l Leaf) (replaced bool) {
	if w.byKey == nil {
		w.byKey = make(map[string]Leaf)
	}
	_, replaced = w.byKey[l.Key]
	w.byKey[l.Key] = l
	return replaced
}

// Len returns the number of tuples present in the world.
func (w *World) Len() int {
	if w == nil {
		return 0
	}
	return len(w.byKey)
}

// Contains reports whether exactly this alternative (key and value) is
// present.
func (w *World) Contains(l Leaf) bool {
	if w == nil {
		return false
	}
	got, ok := w.byKey[l.Key]
	return ok && got == l
}

// HasKey reports whether any alternative of the given key is present.
func (w *World) HasKey(key string) bool {
	if w == nil {
		return false
	}
	_, ok := w.byKey[key]
	return ok
}

// Lookup returns the alternative present for key, if any.
func (w *World) Lookup(key string) (Leaf, bool) {
	if w == nil {
		return Leaf{}, false
	}
	l, ok := w.byKey[key]
	return l, ok
}

// Leaves returns the alternatives in the world sorted by key; the result is
// a fresh slice owned by the caller.
func (w *World) Leaves() []Leaf {
	if w == nil {
		return nil
	}
	out := make([]Leaf, 0, len(w.byKey))
	for _, l := range w.byKey {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ByScoreDesc returns the alternatives ordered by decreasing Score, breaking
// ties by increasing key so the order is deterministic.  The paper assumes
// scores are distinct across keys, in which case the tie-break never fires.
func (w *World) ByScoreDesc() []Leaf {
	out := w.Leaves()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Clone returns an independent copy of the world.
func (w *World) Clone() *World {
	c := &World{byKey: make(map[string]Leaf, w.Len())}
	if w != nil {
		for k, l := range w.byKey {
			c.byKey[k] = l
		}
	}
	return c
}

// Equal reports whether two worlds hold exactly the same alternatives.
func (w *World) Equal(o *World) bool {
	if w.Len() != o.Len() {
		return false
	}
	if w == nil {
		return true
	}
	for k, l := range w.byKey {
		if got, ok := o.byKey[k]; !ok || got != l {
			return false
		}
	}
	return true
}

// String renders the world as a sorted set literal, e.g. {t1(7), t4(0)}.
func (w *World) String() string {
	ls := w.Leaves()
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Fingerprint returns a canonical string identifying the world's contents,
// usable as a map key when deduplicating worlds.
func (w *World) Fingerprint() string {
	ls := w.Leaves()
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%s\x00%g\x00%s", l.Key, l.Score, l.Label)
	}
	return b.String()
}

// SymDiff returns the symmetric-difference distance |W1 delta W2| between
// two worlds (Section 4.1).  Two different alternatives of the same tuple
// are treated as different elements, per the paper.
func SymDiff(a, b *World) int {
	d := 0
	if a != nil {
		for _, l := range a.byKey {
			if !b.Contains(l) {
				d++
			}
		}
	}
	if b != nil {
		for _, l := range b.byKey {
			if !a.Contains(l) {
				d++
			}
		}
	}
	return d
}

// Jaccard returns the Jaccard distance |W1 delta W2| / |W1 union W2|
// (Section 4.2).  The distance between two empty worlds is defined as 0.
func Jaccard(a, b *World) float64 {
	inter := 0
	if a != nil {
		for _, l := range a.byKey {
			if b.Contains(l) {
				inter++
			}
		}
	}
	union := a.Len() + b.Len() - inter
	if union == 0 {
		return 0
	}
	return float64(union-inter) / float64(union)
}

// TopK returns the keys of the k highest-score alternatives present in the
// world, ordered by decreasing score.  If fewer than k tuples are present,
// all of them are returned (a shorter list), matching the convention that
// absent tuples have rank infinity.  k <= 0 yields an empty answer.
func (w *World) TopK(k int) []string {
	if k <= 0 {
		return []string{}
	}
	ls := w.ByScoreDesc()
	if len(ls) > k {
		ls = ls[:k]
	}
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = l.Key
	}
	return out
}

// GroupCounts returns the number of present tuples carrying each label,
// i.e. the answer to "select label, count(*) ... group by label" in this
// world (Section 6.1).
func (w *World) GroupCounts() map[string]int {
	out := make(map[string]int)
	if w != nil {
		for _, l := range w.byKey {
			out[l.Label]++
		}
	}
	return out
}
