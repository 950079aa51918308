package topk

import (
	"math/rand"
	"reflect"
	"testing"

	"consensus/internal/andxor"
	"consensus/internal/genfunc"
	"consensus/internal/workload"
)

// medianCase builds a random Independent (shape 0), BID (1) or Nested (2)
// tree.  With zeroEvery > 0 every zeroEvery-th leaf alternative's edge
// probability is set to 0, so the DP also meets or-children no world
// selects (and or-nodes with no selectable child).
func medianCase(seed int64, shape, n, zeroEvery int) *andxor.Tree {
	rng := rand.New(rand.NewSource(seed))
	var tr *andxor.Tree
	switch shape % 3 {
	case 0:
		tr = workload.Independent(rng, n)
	case 1:
		tr = workload.BID(rng, n, 3)
	default:
		tr = workload.Nested(rng, n, 3)
	}
	if zeroEvery > 0 {
		for i, l := range tr.LeafAlternatives() {
			if i%zeroEvery == 0 {
				// Leaves whose parent is not an or-node reject set-prob;
				// they simply keep their weight.
				_, _ = tr.Apply(andxor.Update{Kind: andxor.UpdateSetProb, Key: l.Key, Score: l.Score, Prob: 0})
			}
		}
	}
	return tr
}

// checkMedianMatchesLegacy pins MedianSymDiffRanks to the recursive
// legacy DP: the same list (order included) and the same error.
func checkMedianMatchesLegacy(t *testing.T, tr *andxor.Tree, k int) {
	t.Helper()
	rd, err := genfunc.Ranks(tr, k)
	if err != nil {
		t.Fatalf("rank distribution: %v", err)
	}
	got, gotErr := MedianSymDiffRanks(tr, rd, k)
	want, wantErr := medianSymDiffRanksLegacy(tr, rd, k)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
		t.Fatalf("k=%d: plan DP (%v, %v), legacy DP (%v, %v) (tree %s)", k, got, gotErr, want, wantErr, tr)
	}
}

// TestMedianDPMatchesLegacy runs the differential check over 300 random
// trees of the three families and k in {1, 2, 3, 5, 10}.
func TestMedianDPMatchesLegacy(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		tr := medianCase(int64(trial), trial, 1+trial%23, []int{0, 0, 3, 5}[trial%4])
		for _, k := range []int{1, 2, 3, 5, 10} {
			checkMedianMatchesLegacy(t, tr, k)
		}
	}
}

// FuzzMedianDP is the differential check over fuzzer-chosen trees:
// family, size (1..40 keys), seed, zeroed edges and k in [1, 10].
func FuzzMedianDP(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(40), uint8(0), uint8(10))
	f.Add(int64(2), uint8(1), uint8(12), uint8(3), uint8(3))
	f.Add(int64(3), uint8(2), uint8(20), uint8(0), uint8(5))
	f.Add(int64(4), uint8(2), uint8(6), uint8(2), uint8(1))
	f.Add(int64(5), uint8(1), uint8(1), uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, shape, n, zeroEvery, k uint8) {
		tr := medianCase(seed, int(shape), 1+int(n)%40, int(zeroEvery)%6)
		checkMedianMatchesLegacy(t, tr, 1+int(k)%10)
	})
}
