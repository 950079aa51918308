package topk

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"consensus/internal/andxor"
	"consensus/internal/genfunc"
	"consensus/internal/types"
)

// FromWorld returns the top-k answer of a deterministic world: its at most
// k highest-score tuples by decreasing score.
func FromWorld(w *types.World, k int) List {
	return List(w.TopK(k))
}

// RankSource is the rank-distribution view the symmetric-difference
// consensus algorithms consume: the covered tuple keys (sorted) and the
// cumulative rank probabilities Pr(r(t) <= i).  It is satisfied by the
// exact *genfunc.RankDist and by sampling-based estimates (package
// internal/approx), so the same Theorem 3/4 code serves both backends.
type RankSource interface {
	Keys() []string
	PrLE(key string, i int) float64
}

// ExpectedNormSymDiff returns E[d_Delta(tau, tau_pw)] in closed form from a
// rank distribution with cutoff k (the rewriting in the proof of
// Theorem 3): E[|tau delta tau_pw|] = sum_{t in tau} Pr(r(t) > k) +
// sum_{t not in tau} Pr(r(t) <= k), normalized by 2k.  Foreign keys in tau
// contribute Pr(r(t) > k) = 1.
func ExpectedNormSymDiff(rd RankSource, tau List, k int) float64 {
	e := 0.0
	for _, key := range rd.Keys() {
		if tau.Contains(key) {
			e += 1 - rd.PrLE(key, k)
		} else {
			e += rd.PrLE(key, k)
		}
	}
	for _, t := range tau {
		if !containsKey(rd.Keys(), t) {
			e += 1
		}
	}
	return e / float64(2*k)
}

func containsKey(keys []string, t string) bool {
	i := sort.SearchStrings(keys, t)
	return i < len(keys) && keys[i] == t
}

// MeanSymDiff returns the mean top-k answer under the normalized symmetric
// difference metric: by Theorem 3, the k tuples with the largest
// Pr(r(t) <= k).  Since d_Delta ignores order, the answer is returned
// sorted by that probability (descending, ties by key) for determinism.
// If the tree has fewer than k tuples, all of them are returned.
func MeanSymDiff(t *andxor.Tree, k int) (List, *genfunc.RankDist, error) {
	rd, err := genfunc.Ranks(t, k)
	if err != nil {
		return nil, nil, err
	}
	return MeanSymDiffRanks(rd, k), rd, nil
}

// MeanSymDiffRanks is MeanSymDiff on a precomputed rank distribution with
// cutoff rd.K >= k, letting callers (notably the serving engine) amortize
// the expensive Ranks computation across queries.
func MeanSymDiffRanks(rd RankSource, k int) List {
	keys := append([]string(nil), rd.Keys()...)
	sort.SliceStable(keys, func(i, j int) bool {
		pi, pj := rd.PrLE(keys[i], k), rd.PrLE(keys[j], k)
		if pi != pj {
			return pi > pj
		}
		return keys[i] < keys[j]
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	return List(keys)
}

// MedianSymDiff returns a median top-k answer under the normalized
// symmetric difference metric: the top-k answer of some possible world
// minimizing the expected distance, found by the threshold + tree dynamic
// program of Theorem 4.
//
// For every candidate score threshold a, the DP computes the possible
// world of the tree restricted to leaves with score >= a that has exactly
// k such leaves and maximizes the answer's total Pr(r(t) <= k) (shifted by
// -1/2 per member so different answer sizes compare correctly); the best
// candidate over all thresholds is the median answer, ordered by
// decreasing score.  Because a world holding fewer than k tuples answers
// with all of them, answers of size j < k (realized by worlds of exactly j
// tuples, i.e. the no-threshold DP) are also candidates; the paper's DP is
// the size-k case.
func MedianSymDiff(t *andxor.Tree, k int) (List, *genfunc.RankDist, error) {
	rd, err := genfunc.Ranks(t, k)
	if err != nil {
		return nil, nil, err
	}
	tau, err := MedianSymDiffRanks(t, rd, k)
	return tau, rd, err
}

// MedianSymDiffRanks is MedianSymDiff on a precomputed rank distribution
// with cutoff rd.K >= k.
//
// The DP runs once per distinct score T over one plan built per call (see
// medianPlan), so a call costs O(T·N·k²) time for N tree nodes and a
// fixed number of allocations independent of T.
func MedianSymDiffRanks(t *andxor.Tree, rd RankSource, k int) (List, error) {
	if k > len(t.Keys()) {
		k = len(t.Keys())
	}
	if k == 0 {
		return List{}, nil
	}
	// Candidate thresholds: every distinct leaf score, ascending.
	alts := t.LeafAlternatives()
	scores := make([]float64, len(alts))
	minScore := math.Inf(1)
	for i, l := range alts {
		scores[i] = l.Score
		minScore = math.Min(minScore, l.Score)
	}
	sort.Float64s(scores)
	scores = slices.Compact(scores)

	// E[d_Delta] decreases in sum_{t in tau} (Pr(r(t)<=k) - 1/2), so the
	// DP maximizes that weight and the best candidate across thresholds
	// and sizes is the median.
	p := newMedianPlan(t, rd, k)
	root := int32(len(p.nodes) - 1)
	bestVal := math.Inf(-1)
	best := make([]types.Leaf, 0, k)
	for _, a := range scores {
		p.run(a)
		row := p.val[int(root)*p.w : int(root)*p.w+p.w]
		win := -1
		if row[k] > bestVal {
			bestVal, win = row[k], k
		}
		if a == minScore {
			// No-threshold table: worlds of exactly j < k tuples answer
			// with all of them.
			for j := 0; j < k; j++ {
				if row[j] > bestVal {
					bestVal, win = row[j], j
				}
			}
		}
		if win >= 0 {
			best = p.collect(best[:0], root, int32(win))
			slices.Reverse(best)
		}
	}
	if math.IsInf(bestVal, -1) {
		return nil, fmt.Errorf("topk: tree admits no possible world")
	}
	sort.Slice(best, func(i, j int) bool { return best[i].Score > best[j].Score })
	out := make(List, len(best))
	for i, l := range best {
		out[i] = l.Key
	}
	return out, nil
}

// medianPlan is the Theorem 4 dynamic program's state for one
// MedianSymDiffRanks call, built once and reused for every threshold.
//
//   - Plan.  The tree is flattened into nodes in postorder (children
//     before parents, the root last), dropping or-children of edge
//     probability zero, which no possible world selects.  Each leaf
//     carries its weight Pr(r(t)<=k) - 1/2, computed once per call.
//   - Tables.  val[i*w+s] (w = k+1) is node i's best total weight over the
//     worlds of its subtree with exactly s leaves of score >= the current
//     threshold, -Inf when there is none.  A node's sizes never exceed
//     its static bound hi (the most leaves one world of its subtree
//     holds, capped at k); loops stop there, which skips only entries that
//     are -Inf.  The bounds cut BenchmarkMedianSymDiffRanks by a third
//     against loops over the full k+1 row (Independent n=40: 350µs ->
//     233µs; Nested n=128: 4.59ms -> 3.02ms; k=10, 2-vCPU Xeon, medians
//     of ten alternating runs).
//   - Back-pointers.  pick[i*w+s] is the child an or-node took for size s
//     (-1: the empty choice); split[c*w+s] is the size child c of an
//     and-node contributed when the fold over that node's children
//     reached accumulated size s.  Only the winning candidate's leaf set
//     is ever built, by walking these pointers (collect).
//
// The answer is identical, not merely equal in cost, to the recursive DP
// that stores a leaf set per table entry (the test oracle
// medianSymDiffRanksLegacy): every table entry is computed by
// the same float64 operations in the same order (leaf weights, the
// and-node sums acc[s1] + sub[s2] folded child by child, strict-> updates
// visiting sizes and children in the same order), so the same entry wins
// every comparison, and the back-pointers name exactly the leaves that
// entry's set held, in the same left-to-right order.
type medianPlan struct {
	k, w  int
	nodes []medianNode
	kids  []int32 // children of node i: kids[nodes[i].kidLo:nodes[i].kidHi]

	val   []float64
	pick  []int32
	split []int32

	acc, next []float64 // and-node fold rows
}

type medianNode struct {
	kind         andxor.Kind
	stop         bool  // or-node: StopProb() > 0
	hi           int32 // most leaves one world of the subtree holds, at most k
	kidLo, kidHi int32
	leaf         types.Leaf
	weight       float64 // leaf: Pr(r(t)<=k) - 1/2
}

func newMedianPlan(t *andxor.Tree, rd RankSource, k int) *medianPlan {
	var count func(n *andxor.Node) int
	count = func(n *andxor.Node) int {
		c := 1
		for ci, ch := range n.Children() {
			if selectable(n, ci) {
				c += count(ch)
			}
		}
		return c
	}
	size := count(t.Root())
	w := k + 1
	p := &medianPlan{
		k:     k,
		w:     w,
		nodes: make([]medianNode, 0, size),
		kids:  make([]int32, 0, size),
		val:   make([]float64, size*w),
		pick:  make([]int32, size*w),
		split: make([]int32, size*w),
		acc:   make([]float64, w),
		next:  make([]float64, w),
	}
	// stack holds the ids of the children flattened so far on the current
	// root path, so each node's children land contiguously in kids.
	stack := make([]int32, 0, size)
	var add func(n *andxor.Node) int32
	add = func(n *andxor.Node) int32 {
		nd := medianNode{kind: n.Kind()}
		base := len(stack)
		for ci, ch := range n.Children() {
			if selectable(n, ci) {
				stack = append(stack, add(ch))
			}
		}
		nd.kidLo = int32(len(p.kids))
		p.kids = append(p.kids, stack[base:]...)
		nd.kidHi = int32(len(p.kids))
		stack = stack[:base]
		switch n.Kind() {
		case andxor.KindLeaf:
			nd.leaf = n.Leaf()
			nd.weight = rd.PrLE(nd.leaf.Key, k) - 0.5
			nd.hi = 1
		case andxor.KindOr:
			nd.stop = n.StopProb() > 0
			for _, c := range p.kids[nd.kidLo:nd.kidHi] {
				nd.hi = max(nd.hi, p.nodes[c].hi)
			}
		default:
			for _, c := range p.kids[nd.kidLo:nd.kidHi] {
				nd.hi = min(int32(k), nd.hi+p.nodes[c].hi)
			}
		}
		p.nodes = append(p.nodes, nd)
		return int32(len(p.nodes) - 1)
	}
	add(t.Root())
	return p
}

// selectable reports whether child ci of n occurs in some possible world:
// an or-child of edge probability zero never does.
func selectable(n *andxor.Node, ci int) bool {
	return n.Kind() != andxor.KindOr || n.Probs()[ci] != 0
}

// run fills every node's table for threshold a, children first.
func (p *medianPlan) run(a float64) {
	negInf := math.Inf(-1)
	w := p.w
	for i := range p.nodes {
		nd := &p.nodes[i]
		row := p.val[i*w : i*w+w]
		for s := range row {
			row[s] = negInf
		}
		switch nd.kind {
		case andxor.KindLeaf:
			if nd.leaf.Score >= a {
				row[1] = nd.weight
			} else {
				// Below the threshold the leaf is present in the world but
				// contributes nothing to the top set.
				row[0] = 0
			}
		case andxor.KindOr:
			pick := p.pick[i*w : i*w+w]
			if nd.stop {
				row[0], pick[0] = 0, -1
			}
			for _, c := range p.kids[nd.kidLo:nd.kidHi] {
				sub := p.val[int(c)*w : int(c)*w+int(p.nodes[c].hi)+1]
				for s, v := range sub {
					if v > row[s] {
						row[s], pick[s] = v, c
					}
				}
			}
		default: // KindAnd: max-plus knapsack over the children
			acc, next := p.acc, p.next
			for s := range acc {
				acc[s] = negInf
			}
			acc[0] = 0
			hiAcc := 0
			for _, c := range p.kids[nd.kidLo:nd.kidHi] {
				sub := p.val[int(c)*w : int(c)*w+int(p.nodes[c].hi)+1]
				split := p.split[int(c)*w : int(c)*w+w]
				for s := range next {
					next[s] = negInf
				}
				for s1, e1 := range acc[:hiAcc+1] {
					if e1 == negInf {
						continue
					}
					for s2, e2 := range sub[:min(len(sub), p.k-s1+1)] {
						if e2 == negInf {
							continue
						}
						if v := e1 + e2; v > next[s1+s2] {
							next[s1+s2], split[s1+s2] = v, int32(s2)
						}
					}
				}
				acc, next = next, acc
				hiAcc = min(p.k, hiAcc+len(sub)-1)
			}
			copy(row, acc)
		}
	}
}

// collect appends the leaves of node i's size-s entry for the threshold
// of the last run, in reverse left-to-right order (callers reverse the
// result).
func (p *medianPlan) collect(out []types.Leaf, i, s int32) []types.Leaf {
	nd := &p.nodes[i]
	switch nd.kind {
	case andxor.KindLeaf:
		if s == 1 {
			out = append(out, nd.leaf)
		}
	case andxor.KindOr:
		if c := p.pick[int(i)*p.w+int(s)]; c >= 0 {
			out = p.collect(out, c, s)
		}
	default:
		kids := p.kids[nd.kidLo:nd.kidHi]
		for j := len(kids) - 1; j >= 0; j-- {
			c := kids[j]
			s2 := p.split[int(c)*p.w+int(s)]
			out = p.collect(out, c, s2)
			s -= s2
		}
	}
	return out
}
