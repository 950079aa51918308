package topk

import (
	"fmt"
	"math"
	"sort"

	"consensus/internal/andxor"
	"consensus/internal/types"
)

// Legacy reference implementation of MedianSymDiffRanks: the recursive
// Theorem 4 dynamic program as the package computed it before the
// flattened plan, allocating a fresh table per node per threshold and
// carrying each entry's leaf set along.  The differential tests pin the
// production DP to it exactly (same list, same error).

func medianSymDiffRanksLegacy(t *andxor.Tree, rd RankSource, k int) (List, error) {
	if k > len(t.Keys()) {
		k = len(t.Keys())
	}
	if k == 0 {
		return List{}, nil
	}
	scoreSet := map[float64]bool{}
	minScore := math.Inf(1)
	for _, l := range t.LeafAlternatives() {
		scoreSet[l.Score] = true
		minScore = math.Min(minScore, l.Score)
	}
	scores := make([]float64, 0, len(scoreSet))
	for s := range scoreSet {
		scores = append(scores, s)
	}
	sort.Float64s(scores)

	bestVal := math.Inf(-1)
	var bestLeaves []types.Leaf
	for _, a := range scores {
		tab := medianDPLegacy(t, rd, k, a)
		if !math.IsInf(tab[k].val, -1) && tab[k].val > bestVal {
			bestVal = tab[k].val
			bestLeaves = tab[k].leaves
		}
		if a == minScore {
			for j := 0; j < k; j++ {
				if !math.IsInf(tab[j].val, -1) && tab[j].val > bestVal {
					bestVal = tab[j].val
					bestLeaves = tab[j].leaves
				}
			}
		}
	}
	if math.IsInf(bestVal, -1) {
		return nil, fmt.Errorf("topk: tree admits no possible world")
	}
	sort.Slice(bestLeaves, func(i, j int) bool { return bestLeaves[i].Score > bestLeaves[j].Score })
	out := make(List, len(bestLeaves))
	for i, l := range bestLeaves {
		out[i] = l.Key
	}
	return out, nil
}

// dpEntry is one row of a node's legacy DP table: the best achievable
// total weight over producible leaf sets of a given size, with the set
// itself.
type dpEntry struct {
	val    float64
	leaves []types.Leaf
}

// medianDPLegacy runs the DP for one threshold a and returns the root
// table: entry j holds the best total weight sum (Pr(r(t)<=k) - 1/2) over
// possible worlds with exactly j leaves of score >= a, -Inf when none.
func medianDPLegacy(t *andxor.Tree, rd RankSource, k int, a float64) []dpEntry {
	var walk func(n *andxor.Node) []dpEntry
	negInf := math.Inf(-1)
	walk = func(n *andxor.Node) []dpEntry {
		switch n.Kind() {
		case andxor.KindLeaf:
			l := n.Leaf()
			tab := make([]dpEntry, k+1)
			for i := range tab {
				tab[i].val = negInf
			}
			if l.Score >= a {
				if k >= 1 {
					tab[1] = dpEntry{val: rd.PrLE(l.Key, k) - 0.5, leaves: []types.Leaf{l}}
				}
			} else {
				tab[0] = dpEntry{val: 0}
			}
			return tab
		case andxor.KindOr:
			tab := make([]dpEntry, k+1)
			for i := range tab {
				tab[i].val = negInf
			}
			if n.StopProb() > 0 {
				tab[0] = dpEntry{val: 0}
			}
			for ci, c := range n.Children() {
				sub := walk(c)
				if n.Probs()[ci] == 0 {
					continue
				}
				for sz, e := range sub {
					if e.val > tab[sz].val {
						tab[sz] = e
					}
				}
			}
			return tab
		default:
			acc := make([]dpEntry, k+1)
			for i := range acc {
				acc[i].val = negInf
			}
			acc[0] = dpEntry{val: 0}
			for _, c := range n.Children() {
				sub := walk(c)
				next := make([]dpEntry, k+1)
				for i := range next {
					next[i].val = negInf
				}
				for s1, e1 := range acc {
					if math.IsInf(e1.val, -1) {
						continue
					}
					for s2, e2 := range sub {
						if math.IsInf(e2.val, -1) || s1+s2 > k {
							continue
						}
						if v := e1.val + e2.val; v > next[s1+s2].val {
							merged := make([]types.Leaf, 0, len(e1.leaves)+len(e2.leaves))
							merged = append(merged, e1.leaves...)
							merged = append(merged, e2.leaves...)
							next[s1+s2] = dpEntry{val: v, leaves: merged}
						}
					}
				}
				acc = next
			}
			return acc
		}
	}
	return walk(t.Root())
}
