package setconsensus

import (
	"math/rand"
	"testing"

	"consensus/internal/genfunc"
	"consensus/internal/workload"
)

// BenchmarkMedianWorldJaccard times the BID median-world prefix search:
// one incremental Lemma 1 sweep over all candidate prefixes plus their
// possible-world checks, on the E4 workload of the root package.
func BenchmarkMedianWorldJaccard(b *testing.B) {
	tr := workload.BID(rand.New(rand.NewSource(5)), 48, 2)
	p := genfunc.Compile(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MedianWorldJaccard(tr, p); err != nil {
			b.Fatal(err)
		}
	}
}
