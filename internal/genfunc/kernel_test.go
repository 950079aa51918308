package genfunc

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"consensus/internal/andxor"
	"consensus/internal/types"
	"consensus/internal/workload"
)

// kernelTol is the agreement bound between the compiled kernel and the
// legacy recursive evaluator; the only differences are floating-point
// association orders (binarized fan-ins, score-order sweeps).
const kernelTol = 1e-12

// testTree builds one of the workload families from a seed, covering
// independent, block-disjoint and deeply nested correlation structure.
func testTree(shape, seed, n, maxAlts int) *andxor.Tree {
	rng := rand.New(rand.NewSource(int64(seed)))
	switch shape % 3 {
	case 0:
		return workload.Independent(rng, n)
	case 1:
		return workload.BID(rng, n, maxAlts)
	default:
		return workload.Nested(rng, n, maxAlts)
	}
}

func diffRankDists(t *testing.T, tr *andxor.Tree, got, want *RankDist, k int, label string) {
	t.Helper()
	for _, key := range tr.Keys() {
		for i := 1; i <= k; i++ {
			if d := math.Abs(got.PrEq(key, i) - want.PrEq(key, i)); d > kernelTol {
				t.Fatalf("%s: PrEq(%q, %d) differs by %g (got %v want %v)",
					label, key, i, d, got.PrEq(key, i), want.PrEq(key, i))
			}
			if d := math.Abs(got.PrLE(key, i) - want.PrLE(key, i)); d > kernelTol {
				t.Fatalf("%s: PrLE(%q, %d) differs by %g", label, key, i, d)
			}
		}
	}
}

// TestCompiledRanksMatchLegacy pins the batched incremental kernel to the
// legacy per-leaf recursive evaluation across tree families, sizes and
// cutoffs.
func TestCompiledRanksMatchLegacy(t *testing.T) {
	for shape := 0; shape < 3; shape++ {
		for _, n := range []int{1, 2, 7, 24} {
			for _, k := range []int{1, 3, 9, 40} {
				tr := testTree(shape, 100*shape+n, n, 3)
				got, err := Ranks(tr, k)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ranksLegacy(tr, k)
				if err != nil {
					t.Fatal(err)
				}
				diffRankDists(t, tr, got, want, k, fmt.Sprintf("shape=%d n=%d k=%d", shape, n, k))
			}
		}
	}
}

// TestCompiledPrecedenceMatchesLegacy pins single-pair precedence and the
// batched matrix sweep to the legacy evaluator.
func TestCompiledPrecedenceMatchesLegacy(t *testing.T) {
	for shape := 0; shape < 3; shape++ {
		tr := testTree(shape, 7+shape, 10, 3)
		keys := tr.Keys()
		gotM := PrecedenceMatrix(tr, keys)
		wantM := precedenceMatrixLegacy(tr, keys)
		for i := range keys {
			for j := range keys {
				if d := math.Abs(gotM[i][j] - wantM[i][j]); d > kernelTol {
					t.Fatalf("shape=%d M[%d][%d] differs by %g", shape, i, j, d)
				}
			}
		}
		for _, i := range []int{0, len(keys) / 2} {
			for _, j := range []int{len(keys) - 1, 1} {
				got := Precedence(tr, keys[i], keys[j])
				want := precedenceLegacy(tr, keys[i], keys[j])
				if d := math.Abs(got - want); d > kernelTol {
					t.Fatalf("shape=%d Precedence(%q, %q) differs by %g", shape, keys[i], keys[j], d)
				}
			}
		}
	}
}

// TestCompiledPrecedenceUnknownKeys pins the kernel's edge-case behavior
// for keys absent from the tree to the legacy evaluator's: an unknown
// keyI contributes nothing, an unknown keyJ excludes nothing.
func TestCompiledPrecedenceUnknownKeys(t *testing.T) {
	tr := testTree(1, 3, 6, 2)
	keys := tr.Keys()
	if got := Precedence(tr, "no-such-key", keys[0]); got != 0 {
		t.Fatalf("unknown keyI: got %v, want 0", got)
	}
	got := Precedence(tr, keys[0], "no-such-key")
	want := precedenceLegacy(tr, keys[0], "no-such-key")
	if d := math.Abs(got - want); d > kernelTol {
		t.Fatalf("unknown keyJ: got %v, legacy %v", got, want)
	}
	gotM := PrecedenceMatrix(tr, []string{keys[0], "no-such-key", keys[1]})
	wantM := precedenceMatrixLegacy(tr, []string{keys[0], "no-such-key", keys[1]})
	for i := range gotM {
		for j := range gotM[i] {
			if d := math.Abs(gotM[i][j] - wantM[i][j]); d > kernelTol {
				t.Fatalf("matrix with unknown key: M[%d][%d] differs by %g", i, j, d)
			}
		}
	}
}

// TestPrecedenceMatrixDuplicateKeys checks that a key listed twice fills
// all of its rows and columns like the legacy per-cell loop did.
func TestPrecedenceMatrixDuplicateKeys(t *testing.T) {
	tr := testTree(1, 4, 5, 2)
	keys := tr.Keys()
	dup := []string{keys[0], keys[1], keys[0]}
	got := PrecedenceMatrix(tr, dup)
	want := precedenceMatrixLegacy(tr, dup)
	for i := range dup {
		for j := range dup {
			if d := math.Abs(got[i][j] - want[i][j]); d > kernelTol {
				t.Fatalf("M[%d][%d] = %v, legacy %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	if got[0][1] != got[2][1] {
		t.Fatalf("duplicate rows differ: %v vs %v", got[0][1], got[2][1])
	}
}

// TestMaxPathLen pins the compiled path-length statistic on shapes with
// known depth: a balanced BID tree stays logarithmic in its block count,
// and a single leaf is a one-instruction path.
func TestMaxPathLen(t *testing.T) {
	single := Compile(andxor.MustNew(andxor.NewOr(
		[]*andxor.Node{andxor.NewLeaf(types.Leaf{Key: "t1", Score: 1})}, []float64{0.5})))
	if got := single.MaxPathLen(); got != 2 {
		t.Fatalf("or-over-leaf: MaxPathLen = %d, want 2", got)
	}
	tr := workload.BID(rand.New(rand.NewSource(3)), 64, 2)
	p := Compile(tr)
	// leaf -> block sum -> ~log2(64) binarized product levels -> root.
	if got := p.MaxPathLen(); got < 7 || got > 10 {
		t.Fatalf("BID(64): MaxPathLen = %d, want ~8", got)
	}
}

// TestCompiledWorldSizeDistMatchesLegacy pins the compiled one-pass
// world-size evaluation to the legacy recursive one.
func TestCompiledWorldSizeDistMatchesLegacy(t *testing.T) {
	for shape := 0; shape < 3; shape++ {
		for _, n := range []int{1, 5, 33} {
			tr := testTree(shape, 11*shape+n, n, 3)
			got := WorldSizeDist(tr)
			want := worldSizeDistLegacy(tr)
			if len(got) != len(want) {
				t.Fatalf("shape=%d n=%d: length %d vs legacy %d", shape, n, len(got), len(want))
			}
			for i := range got {
				if d := math.Abs(got[i] - want[i]); d > kernelTol {
					t.Fatalf("shape=%d n=%d: coeff %d differs by %g", shape, n, i, d)
				}
			}
		}
	}
}

// TestRanksParallelBitIdentical verifies the sharded kernel reproduces the
// sequential kernel bit for bit at every worker count: arena values are
// pure functions of the assignment and the merge runs in leaf order.
func TestRanksParallelBitIdentical(t *testing.T) {
	tr := testTree(2, 5, 30, 3)
	k := 8
	want, err := Ranks(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 7, 64} {
		got, err := RanksParallel(tr, k, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range tr.Keys() {
			for i := 1; i <= k; i++ {
				if got.PrEq(key, i) != want.PrEq(key, i) {
					t.Fatalf("workers=%d: PrEq(%q, %d) = %v, sequential %v",
						workers, key, i, got.PrEq(key, i), want.PrEq(key, i))
				}
			}
		}
	}
}

// TestCompiledRanksZeroSteadyStateAllocs proves the incremental kernel's
// steady state allocates nothing: with the program, arena and output rows
// reused, a full batched rank evaluation performs zero heap allocations.
func TestCompiledRanksZeroSteadyStateAllocs(t *testing.T) {
	tr := workload.BID(rand.New(rand.NewSource(9)), 24, 2)
	p := Compile(tr)
	k := 6
	ar := newArena(p, k-1, 1)
	contrib := make([]float64, p.NumLeaves()*k)
	if allocs := testing.AllocsPerRun(10, func() {
		p.ranksRange(ar, k, 0, p.NumLeaves(), contrib)
	}); allocs != 0 {
		t.Fatalf("steady-state rank kernel allocates %v objects per run, want 0", allocs)
	}
}

// FuzzCompiledKernel cross-checks the compiled kernel against the legacy
// recursive evaluator on randomized and/xor trees from every workload
// family: rank distributions, precedence probabilities and world-size
// distributions must agree within 1e-12.
func FuzzCompiledKernel(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(8), uint8(5))
	f.Add(int64(2), uint8(1), uint8(12), uint8(3))
	f.Add(int64(3), uint8(2), uint8(20), uint8(1))
	f.Add(int64(4), uint8(4), uint8(1), uint8(9))
	f.Add(int64(5), uint8(5), uint8(31), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, shape, size, cutoff uint8) {
		n := 1 + int(size)%32
		k := 1 + int(cutoff)%12
		tr := testTree(int(shape), int(seed%1_000_003), n, 1+int(shape/3)%4)
		got, gotErr := Ranks(tr, k)
		want, wantErr := ranksLegacy(tr, k)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("error mismatch: kernel %v, legacy %v", gotErr, wantErr)
		}
		if gotErr == nil {
			diffRankDists(t, tr, got, want, k, "fuzz ranks")
		}
		keys := tr.Keys()
		rng := rand.New(rand.NewSource(seed ^ 0x5ca1e))
		for trial := 0; trial < 3; trial++ {
			i, j := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
			gp, wp := Precedence(tr, i, j), precedenceLegacy(tr, i, j)
			if d := math.Abs(gp - wp); d > kernelTol {
				t.Fatalf("Precedence(%q, %q) differs by %g", i, j, d)
			}
		}
		gw, ww := WorldSizeDist(tr), worldSizeDistLegacy(tr)
		if len(gw) != len(ww) {
			t.Fatalf("world-size length %d vs legacy %d", len(gw), len(ww))
		}
		for i := range gw {
			if d := math.Abs(gw[i] - ww[i]); d > kernelTol {
				t.Fatalf("world-size coeff %d differs by %g", i, d)
			}
		}
		ge, geErr := ExpectedRank(tr)
		we, weErr := expectedRankLegacy(tr)
		if (geErr == nil) != (weErr == nil) {
			t.Fatalf("ExpectedRank error mismatch: kernel %v, legacy %v", geErr, weErr)
		}
		if geErr == nil {
			for _, key := range keys {
				if d := math.Abs(ge[key] - we[key]); d > kernelTol*math.Max(1, math.Abs(we[key])) {
					t.Fatalf("E[rank(%s)] differs by %g", key, d)
				}
			}
		}
		if gv, wv := ValidateScores(tr), validateScoresLegacy(tr); (gv == nil) != (wv == nil) {
			t.Fatalf("ValidateScores verdict mismatch: kernel %v, legacy %v", gv, wv)
		}
		checkCoClustering(t, tr)
		checkJaccardPrefixes(t, tr)
	})
}

// diffTrees returns the trees of the co-clustering, Jaccard and subset
// differential tests: independent, BID, nested and labeled shapes, every
// other round with one alternative's edge set to probability zero.
func diffTrees(t *testing.T, seed int64) []*andxor.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []*andxor.Tree
	for round := 0; round < 6; round++ {
		n := 2 + rng.Intn(6)
		for _, tr := range []*andxor.Tree{
			workload.Independent(rng, n),
			workload.BID(rng, n, 3),
			workload.Nested(rng, n, 3),
			workload.Labeled(rng, n, 3, 2),
			workload.NestedLabeled(rng, n, 3, 2),
		} {
			if round%2 == 1 {
				zeroOneEdge(t, tr, rng)
			}
			out = append(out, tr)
		}
	}
	return out
}

// zeroOneEdge sets the edge probability of one random alternative to 0.
func zeroOneEdge(t *testing.T, tr *andxor.Tree, rng *rand.Rand) {
	t.Helper()
	alts := tr.LeafAlternatives()
	l := alts[rng.Intn(len(alts))]
	if _, err := tr.Apply(andxor.Update{Kind: andxor.UpdateSetProb, Key: l.Key, Score: l.Score, Prob: 0}); err != nil {
		t.Fatalf("zeroing %v: %v", l, err)
	}
}

// medianPrefix returns the candidate order of the BID median-world
// Jaccard search: each key's most probable alternative, by decreasing
// marginal probability.
func medianPrefix(tr *andxor.Tree) []types.Leaf {
	probs := tr.MarginalProbs()
	best := map[string]int{}
	for i, l := range tr.LeafAlternatives() {
		if b, ok := best[l.Key]; !ok || probs[i] > probs[b] {
			best[l.Key] = i
		}
	}
	idx := make([]int, 0, len(best))
	for _, key := range tr.Keys() {
		idx = append(idx, best[key])
	}
	sort.SliceStable(idx, func(a, b int) bool { return probs[idx[a]] > probs[idx[b]] })
	out := make([]types.Leaf, len(idx))
	for i, li := range idx {
		out[i] = tr.LeafAlternatives()[li]
	}
	return out
}

// checkCoClustering pins CoClustering to the legacy per-pair recursive
// evaluation.
func checkCoClustering(t *testing.T, tr *andxor.Tree) {
	t.Helper()
	got, want := CoClustering(tr), coClusteringLegacy(tr)
	for i := range want {
		for j := range want[i] {
			if d := math.Abs(got[i][j] - want[i][j]); d > kernelTol {
				t.Fatalf("w[%d][%d] = %v, legacy %v (tree %s)", i, j, got[i][j], want[i][j], tr)
			}
		}
	}
}

// checkJaccardPrefixes pins every prefix of the median-world candidate
// order, and ExpectedJaccard of the full prefix world, to the legacy
// Eval2 form of Lemma 1.
func checkJaccardPrefixes(t *testing.T, tr *andxor.Tree) {
	t.Helper()
	prefix := medianPrefix(tr)
	got := compiled(tr).JaccardPrefixes(prefix)
	w := &types.World{}
	for k := 0; k <= len(prefix); k++ {
		if k > 0 {
			w.Add(prefix[k-1])
		}
		if want := expectedJaccardLegacy(tr, w); math.Abs(got[k]-want) > kernelTol {
			t.Fatalf("prefix %d: E[d_J] = %v, legacy %v (tree %s)", k, got[k], want, tr)
		}
	}
	if e := ExpectedJaccard(tr, w); math.Abs(e-got[len(prefix)]) > kernelTol {
		t.Fatalf("ExpectedJaccard = %v, full prefix %v", e, got[len(prefix)])
	}
}

func TestCoClusteringMatchesLegacy(t *testing.T) {
	for _, tr := range diffTrees(t, 81) {
		checkCoClustering(t, tr)
	}
}

func TestJaccardPrefixesMatchLegacy(t *testing.T) {
	for _, tr := range diffTrees(t, 82) {
		checkJaccardPrefixes(t, tr)
	}
}

func TestSubsetSizeDistMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, tr := range diffTrees(t, 83) {
		marks := make([]bool, tr.NumLeaves())
		for i := range marks {
			marks[i] = rng.Intn(2) == 0
		}
		in := func(i int, _ types.Leaf) bool { return marks[i] }
		got, want := SubsetSizeDist(tr, in), subsetSizeDistLegacy(tr, in)
		for i := 0; i < max(len(got), len(want)); i++ {
			if d := math.Abs(got.Coeff(i) - want.Coeff(i)); d > kernelTol {
				t.Fatalf("Pr(|pw ∩ S| = %d) = %v, legacy %v (tree %s)", i, got.Coeff(i), want.Coeff(i), tr)
			}
		}
	}
}

// TestCoefficientMatchesLegacy pins the single-shot Coefficient to Eval2
// under random monomial assignments and coefficient positions.
func TestCoefficientMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for _, tr := range diffTrees(t, 84) {
		xd := make([]int, tr.NumLeaves())
		yd := make([]int, tr.NumLeaves())
		for i := range xd {
			xd[i], yd[i] = rng.Intn(3), rng.Intn(2)
		}
		assign := func(i int, _ types.Leaf) (int, int) { return xd[i], yd[i] }
		i, j := rng.Intn(4), rng.Intn(3)
		got := Compile(tr).Coefficient(assign, i, j)
		if want := Eval2(tr, assign, i, j).Coeff(i, j); math.Abs(got-want) > kernelTol {
			t.Fatalf("coefficient of x^%d y^%d = %v, legacy %v (tree %s)", i, j, got, want, tr)
		}
	}
}

// BenchmarkCompiledRanksSteadyState measures the allocation-free steady
// state of the incremental rank kernel (compile and arena setup excluded).
func BenchmarkCompiledRanksSteadyState(b *testing.B) {
	tr := workload.BID(rand.New(rand.NewSource(20)), 64, 2)
	p := Compile(tr)
	k := 10
	ar := newArena(p, k-1, 1)
	contrib := make([]float64, p.NumLeaves()*k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ranksRange(ar, k, 0, p.NumLeaves(), contrib)
	}
}

// BenchmarkRanksCompiledVsLegacy compares the end-to-end compiled path
// (compile + arena + batch) against the legacy per-leaf evaluator.
func BenchmarkRanksCompiledVsLegacy(b *testing.B) {
	tr := workload.BID(rand.New(rand.NewSource(21)), 128, 2)
	k := 10
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Ranks(tr, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ranksLegacy(tr, k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRanksCutoffPrefixBitIdentical pins the cross-cutoff contract the
// engine's cache reuse depends on: Ranks(t, k) is a bit-identical prefix
// of Ranks(t, k') for every k < k'.  k=1 exercises the scalar dual-number
// arena (x-cap 0), whose accumulation order must match the generic
// kernels' exactly — including adding an or-node's stop constant last
// (the regression this test pins caught the dual kernel folding it in
// early, a 1-ulp divergence on trees with multi-child or-nodes).
func TestRanksCutoffPrefixBitIdentical(t *testing.T) {
	trees := []*andxor.Tree{
		// BID shapes with multi-child or-nodes (stop constants on binary
		// sums) are where the dual kernel's association order diverged.
		testTree(1, 0, 12, 3),
		testTree(1, 0, 30, 3),
		testTree(1, 3, 6, 3),
	}
	for shape := 0; shape < 3; shape++ {
		trees = append(trees, testTree(shape, 51+shape, 18, 3))
	}
	for _, tr := range trees {
		wide, err := Ranks(tr, 9)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 5} {
			narrow, err := Ranks(tr, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range tr.Keys() {
				for i := 1; i <= k; i++ {
					if narrow.PrEq(key, i) != wide.PrEq(key, i) {
						t.Fatalf("k=%d: PrEq(%q, %d) = %x, k=9 prefix %x (tree %s)",
							k, key, i, narrow.PrEq(key, i), wide.PrEq(key, i), tr)
					}
				}
			}
		}
	}
}
