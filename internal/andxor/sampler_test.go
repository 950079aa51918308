package andxor_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"consensus/internal/andxor"
	"consensus/internal/types"
	"consensus/internal/workload"
)

// oracleSample is the reference world draw: a recursive walk of the node
// structure that consumes one rng.Float64() per visited or-node in
// depth-first order and builds the world directly.  Tree.Sample used to
// be this walk; the compiled Sampler must reproduce its draws exactly.
func oracleSample(t *andxor.Tree, rng *rand.Rand) *types.World {
	w := &types.World{}
	var walk func(n *andxor.Node)
	walk = func(n *andxor.Node) {
		switch n.Kind() {
		case andxor.KindLeaf:
			w.Add(n.Leaf())
		case andxor.KindAnd:
			for _, c := range n.Children() {
				walk(c)
			}
		case andxor.KindOr:
			u := rng.Float64()
			acc := 0.0
			for i, c := range n.Children() {
				acc += n.Probs()[i]
				if u < acc {
					walk(c)
					return
				}
			}
		}
	}
	walk(t.Root())
	return w
}

// checkSamplerAgainstOracle draws worlds with the Sampler, Tree.Sample and
// the oracle from three equal rng streams and requires identical worlds,
// leaves in depth-first order, and RankedKeys prefixes equal to
// World.TopK.
func checkSamplerAgainstOracle(t *testing.T, tr *andxor.Tree, seed int64, draws int) {
	t.Helper()
	s := andxor.NewSampler(tr)
	rngS := rand.New(rand.NewSource(seed))
	rngT := rand.New(rand.NewSource(seed))
	rngO := rand.New(rand.NewSource(seed))
	present := make([]bool, s.NumLeaves())
	var buf, ranked []int32
	for d := 0; d < draws; d++ {
		want := oracleSample(tr, rngO)
		buf = s.SampleInto(rngS, buf[:0])
		if got := s.World(buf); !got.Equal(want) {
			t.Fatalf("seed %d draw %d: Sampler drew %v, oracle %v", seed, d, got, want)
		}
		if got := tr.Sample(rngT); !got.Equal(want) {
			t.Fatalf("seed %d draw %d: Tree.Sample drew %v, oracle %v", seed, d, got, want)
		}
		for i := 1; i < len(buf); i++ {
			if buf[i] <= buf[i-1] {
				t.Fatalf("seed %d draw %d: leaves %v not in depth-first order", seed, d, buf)
			}
		}
		for _, k := range []int{0, 1, 3, len(buf) + 1} {
			ranked = s.RankedKeys(buf, k, present, ranked[:0])
			got := make([]string, len(ranked))
			for i, ki := range ranked {
				got[i] = s.Keys()[ki]
			}
			if wantTop := want.TopK(k); !reflect.DeepEqual(got, wantTop) {
				t.Fatalf("seed %d draw %d: RankedKeys top-%d %v, World.TopK %v", seed, d, k, got, wantTop)
			}
		}
		for li, p := range present {
			if p {
				t.Fatalf("RankedKeys left present[%d] set", li)
			}
		}
	}
	if rngS.Float64() != rngO.Float64() {
		t.Fatalf("seed %d: Sampler and oracle consumed different numbers of variates", seed)
	}
}

// TestSamplerMatchesTreeSample pins the compiled Sampler and Tree.Sample
// to the oracle walk on every workload shape.
func TestSamplerMatchesTreeSample(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, tr := range []*andxor.Tree{
			workload.Nested(rng, 12, 3),
			workload.BID(rng, 10, 3),
			workload.Independent(rng, 8),
			workload.NestedLabeled(rng, 8, 2, 3),
		} {
			checkSamplerAgainstOracle(t, tr, 99+seed, 50)
		}
	}
}

// fuzzTree decodes a tree shape from data: each byte picks a node kind,
// a fan-out, an edge weight or a score.  Scores take few distinct values
// so cross-key ties exercise the key tie-break; or-node children may
// repeat a key, giving tuples several alternatives.
func fuzzTree(data []byte) (*andxor.Tree, error) {
	pos, keys := 0, 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	newKey := func() string {
		keys++
		return fmt.Sprintf("k%d", keys-1)
	}
	var build func(depth int) *andxor.Node
	build = func(depth int) *andxor.Node {
		b := next()
		if depth >= 4 || b%3 == 0 {
			return andxor.NewLeaf(types.Leaf{Key: newKey(), Score: float64(next() % 5)})
		}
		kids := make([]*andxor.Node, 1+next()%3)
		if b%3 == 1 {
			for i := range kids {
				kids[i] = build(depth + 1)
			}
			return andxor.NewAnd(kids...)
		}
		// Or-node: one shared key when the byte says so (alternatives of
		// one tuple), otherwise independent subtrees.
		shared := ""
		if b%2 == 0 {
			shared = newKey()
		}
		weights := make([]float64, len(kids))
		total := float64(next() % 4) // weight of selecting nothing
		for i := range kids {
			if shared != "" {
				kids[i] = andxor.NewLeaf(types.Leaf{Key: shared, Score: float64(next() % 5)})
			} else {
				kids[i] = build(depth + 1)
			}
			weights[i] = float64(next() % 8)
			total += weights[i]
		}
		for i := range weights {
			if total > 0 {
				weights[i] /= total
			}
		}
		return andxor.NewOr(kids, weights)
	}
	return andxor.New(build(0))
}

// FuzzSampler compares Sampler draws with the oracle's on fuzzed tree
// shapes and seeds.
func FuzzSampler(f *testing.F) {
	f.Add([]byte{1, 2, 2, 0, 3, 5, 0, 1, 7}, int64(1))
	f.Add([]byte{2, 2, 0, 4, 1, 3, 2, 6, 0, 0, 5}, int64(7))
	f.Add([]byte{1, 1, 2, 3, 0, 2, 2, 4, 1, 5, 2, 4, 0, 3, 1, 1}, int64(42))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		tr, err := fuzzTree(data)
		if err != nil {
			t.Skip(err)
		}
		checkSamplerAgainstOracle(t, tr, seed, 8)
	})
}
