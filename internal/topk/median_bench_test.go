package topk

import (
	"math/rand"
	"testing"

	"consensus/internal/andxor"
	"consensus/internal/genfunc"
	"consensus/internal/workload"
)

// medianInput is a tree with its rank distribution at cutoff k, the
// inputs the serving engine hands MedianSymDiffRanks.
func medianInput(tb testing.TB, tr *andxor.Tree, k int) *genfunc.RankDist {
	tb.Helper()
	rd, err := genfunc.Ranks(tr, k)
	if err != nil {
		tb.Fatal(err)
	}
	return rd
}

// medianAllocs measures one MedianSymDiffRanks call's allocations on a
// Nested tree of n keys at k=10.
func medianAllocs(t *testing.T, n int) float64 {
	tr := workload.Nested(rand.New(rand.NewSource(21)), n, 2)
	rd := medianInput(t, tr, 10)
	return testing.AllocsPerRun(5, func() {
		if _, err := MedianSymDiffRanks(tr, rd, 10); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMedianSymDiffAllocs pins the plan DP's allocation profile: a call
// allocates its plan and answer, never per threshold, so the count does
// not grow with the number of distinct scores (the per-threshold tables
// of the recursive DP cost ~207k allocations at n=128).
func TestMedianSymDiffAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	small, large := medianAllocs(t, 32), medianAllocs(t, 128)
	if large > 1000 {
		t.Fatalf("Nested n=128, k=10: %v allocations per call, budget 1000", large)
	}
	// Four times the distinct scores; the plan's fixed set of buffers
	// only gets longer.
	if large > small {
		t.Fatalf("allocations grew with the number of distinct scores: n=32 %v, n=128 %v", small, large)
	}
}

var benchMedian List

// BenchmarkMedianSymDiffRanks times the median top-k DP on a precomputed
// rank distribution: the shape of the serving benchmark's trees
// (Independent, 40 tuples, k=10), which recompute the median after every
// write, and a larger Nested tree.
func BenchmarkMedianSymDiffRanks(b *testing.B) {
	for _, c := range []struct {
		name string
		tree *andxor.Tree
	}{
		{"independent-n=40", workload.Independent(rand.New(rand.NewSource(1)), 40)},
		{"nested-n=128", workload.Nested(rand.New(rand.NewSource(21)), 128, 2)},
	} {
		rd := medianInput(b, c.tree, 10)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if benchMedian, err = MedianSymDiffRanks(c.tree, rd, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
