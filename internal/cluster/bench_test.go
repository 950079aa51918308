package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"consensus/internal/workload"
)

// BenchmarkFromTree times the co-clustering matrix (the pairwise sweep on
// the compiled kernel) on labeled BID trees; the tree sizes match the
// B6 scaling study of the root package.
func BenchmarkFromTree(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		tr := workload.Labeled(rand.New(rand.NewSource(24)), n, 2, 4)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = FromTree(tr)
			}
		})
	}
}
