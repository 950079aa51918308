package genfunc

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"consensus/internal/andxor"
	"consensus/internal/types"
	"consensus/internal/workload"
)

// TestCompiledProgramMemoized pins the package-level weak program cache:
// every package-level evaluator resolves the same tree to the same
// compiled Program instead of recompiling per call.
func TestCompiledProgramMemoized(t *testing.T) {
	tr := testTree(1, 3, 12, 2)
	p1 := compiled(tr)
	p2 := compiled(tr)
	if p1 != p2 {
		t.Fatal("compiled(t) returned two different programs for one tree")
	}
	tr2 := testTree(1, 3, 12, 2) // equal shape, distinct object
	if compiled(tr2) == p1 {
		t.Fatal("distinct trees shared one cached program")
	}
}

// TestCompiledProgramTracksMutation pins the memo's mutation stamp:
// Tree.Apply and ApplyAll change a tree in place behind the same pointer,
// and the package-level evaluators must then answer for the mutated
// tree, not from the program compiled before the mutation.
func TestCompiledProgramTracksMutation(t *testing.T) {
	tr, err := andxor.Independent([]andxor.TupleProb{
		{Leaf: types.Leaf{Key: "a", Score: 2}, Prob: 0.5},
		{Leaf: types.Leaf{Key: "b", Score: 1}, Prob: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, want Poly) {
		t.Helper()
		got := WorldSizeDist(tr)
		if len(got) != len(want) {
			t.Fatalf("%s: WorldSizeDist = %v, want %v", label, got, want)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > kernelTol {
				t.Fatalf("%s: WorldSizeDist = %v, want %v", label, got, want)
			}
		}
	}
	check("before", Poly{0.25, 0.5, 0.25})
	if _, err := tr.Apply(andxor.Update{Kind: andxor.UpdateSetProb, Key: "a", Score: 2, Prob: 0.9}); err != nil {
		t.Fatal(err)
	}
	check("after Apply", Poly{0.05, 0.5, 0.45})
	if _, err := tr.ApplyAll([]andxor.Update{
		{Kind: andxor.UpdateSetProb, Key: "a", Score: 2, Prob: 0.1},
		{Kind: andxor.UpdateSetProb, Key: "b", Score: 1, Prob: 1},
	}); err != nil {
		t.Fatal(err)
	}
	check("after ApplyAll", Poly{0, 0.9, 0.1})
}

// TestArenaPoolReuse pins the arena pool: releasing an arena makes the
// next acquisition of the same shape reuse it (no new allocation), while
// a different shape gets its own arena; and a recycled arena starts from
// the reset state even when released mid-evaluation.
func TestArenaPoolReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation pinning is meaningless")
	}
	p := compiled(testTree(0, 9, 16, 2))
	ar := p.acquireArena(4, 1)
	p.releaseArena(ar)
	if got := p.acquireArena(4, 1); got != ar {
		t.Fatal("same-shape acquire did not reuse the pooled arena")
	}
	other := p.acquireArena(0, 1)
	if other == ar {
		t.Fatal("different-shape acquire returned the wrong pool's arena")
	}
	// Dirty an arena, release it mid-flight, and check the next user sees
	// the clean all-zero evaluation.
	ar.setLeaf(0, 1, 0)
	ar.setLeaf(1, 0, 1)
	ar.flush()
	p.releaseArena(ar)
	re := p.acquireArena(4, 1)
	for i := range re.xdeg {
		if re.xdeg[i] != 0 || re.ydeg[i] != 0 {
			t.Fatalf("recycled arena leaf %d carries assignment (%d, %d)", i, re.xdeg[i], re.ydeg[i])
		}
	}
	if re.marked != 0 || re.anyDirty {
		t.Fatalf("recycled arena not reset: marked=%d anyDirty=%v", re.marked, re.anyDirty)
	}
}

// TestArenaResetBitIdentical pins that both reset paths (incremental
// path re-evaluation and the snapshot copy) restore bit-identical state,
// by comparing full batched results computed on a fresh arena versus a
// heavily- and lightly-marked recycled one.
func TestArenaResetBitIdentical(t *testing.T) {
	tr := testTree(2, 11, 20, 3)
	k := 6
	want, err := Ranks(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	// Repeated evaluations run on pooled arenas left in the fully marked
	// end state (snapshot reset) — results must not drift by a bit.
	for trial := 0; trial < 3; trial++ {
		got, err := Ranks(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range tr.Keys() {
			for i := 1; i <= k; i++ {
				if got.PrEq(key, i) != want.PrEq(key, i) {
					t.Fatalf("trial %d: pooled re-evaluation changed PrEq(%q, %d)", trial, key, i)
				}
			}
		}
	}
	// Lightly marked arena: dirty a couple of leaves, release, re-run.
	p := compiled(tr)
	ar := p.acquireArena(k-1, 1)
	ar.setLeaf(0, 1, 0)
	ar.flush()
	p.releaseArena(ar)
	got, err := Ranks(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range tr.Keys() {
		for i := 1; i <= k; i++ {
			if got.PrEq(key, i) != want.PrEq(key, i) {
				t.Fatalf("incremental reset changed PrEq(%q, %d)", key, i)
			}
		}
	}
}

// TestPooledRanksSteadyStateAllocs pins the allocation profile of a warm
// package-level Ranks call: with the program cached and the arena and
// contribution rows pooled, a batch allocates only the returned RankDist
// (one struct and two flat rows — no per-key maps or slices).
func TestPooledRanksSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation pinning is meaningless")
	}
	tr := workload.BID(rand.New(rand.NewSource(31)), 48, 2)
	k := 8
	if _, err := Ranks(tr, k); err != nil { // warm program + pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Ranks(tr, k); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("warm Ranks allocates %v objects per run, want <= 3 (RankDist + eq + le)", allocs)
	}
}

// TestPooledWorldSizeDistAllocs pins the pooled one-pass world-size
// evaluation: a warm call allocates only the returned polynomial.
func TestPooledWorldSizeDistAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation pinning is meaningless")
	}
	tr := workload.BID(rand.New(rand.NewSource(33)), 64, 2)
	_ = WorldSizeDist(tr)
	allocs := testing.AllocsPerRun(20, func() { _ = WorldSizeDist(tr) })
	if allocs > 1 {
		t.Fatalf("warm WorldSizeDist allocates %v objects per run, want <= 1 (the result)", allocs)
	}
}

// TestExpectedRankMatchesLegacy pins the compiled dual-number kernel to
// the legacy evaluation (full rank distribution + one untruncated
// recursive pass per key) across tree families and sizes.
func TestExpectedRankMatchesLegacy(t *testing.T) {
	for shape := 0; shape < 3; shape++ {
		for _, n := range []int{1, 2, 7, 24, 40} {
			tr := testTree(shape, 17*shape+n, n, 3)
			got, err := ExpectedRank(tr)
			if err != nil {
				t.Fatal(err)
			}
			want, err := expectedRankLegacy(tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range tr.Keys() {
				// Relative 1e-12: E[rank] scales with n, so the absolute
				// tolerance scales with the value.
				tol := kernelTol * math.Max(1, math.Abs(want[key]))
				if d := math.Abs(got[key] - want[key]); d > tol {
					t.Fatalf("shape=%d n=%d E[rank(%s)]: compiled %v legacy %v (diff %g)",
						shape, n, key, got[key], want[key], d)
				}
			}
		}
	}
}

// tieTree builds an independent-tuple tree where the first nTied tuples
// share one score (and co-occur with positive probability, so ranking is
// ill-defined) and the rest have distinct scores.
func tieTree(n, nTied int) *andxor.Tree {
	children := make([]*andxor.Node, n)
	for i := range children {
		score := float64(i)
		if i < nTied {
			score = 1000
		}
		children[i] = andxor.NewOr(
			[]*andxor.Node{andxor.NewLeaf(types.Leaf{Key: fmt.Sprintf("t%02d", i), Score: score})},
			[]float64{0.5})
	}
	return andxor.MustNew(andxor.NewAnd(children...))
}

// TestValidateScoresDeterministicPair pins the satellite fix: the
// offending pair reported for a tied, co-occurring score group is stable
// across runs (the legacy implementation ranged over a float64-keyed map,
// so the pair — and the error text — changed run to run), and is the
// first pair in score-descending, leaf-index-ascending order.
func TestValidateScoresDeterministicPair(t *testing.T) {
	first := ValidateScores(tieTree(8, 4))
	if first == nil {
		t.Fatal("tied co-occurring scores not rejected")
	}
	for trial := 0; trial < 10; trial++ {
		// Fresh tree objects so each run recompiles and revalidates.
		if got := ValidateScores(tieTree(8, 4)); got == nil || got.Error() != first.Error() {
			t.Fatalf("offending pair unstable: run 0 %q, run %d %q", first, trial, got)
		}
	}
	// The reported pair is the lowest-indexed one of the group.
	for _, leaf := range []string{"t00", "t01"} {
		if !strings.Contains(first.Error(), leaf) {
			t.Fatalf("error %q does not name the first tied pair (%s)", first, leaf)
		}
	}
}

// TestValidateScoresMatchesLegacy pins the batched co-occurrence check's
// verdict to the legacy per-pair recursive evaluation across families,
// including trees with benign (mutually exclusive) ties.
func TestValidateScoresMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(12)
		tr := testTree(trial, 1000+trial, n, 3)
		got := ValidateScores(tr)
		want := validateScoresLegacy(tr)
		if (got == nil) != (want == nil) {
			t.Fatalf("trial %d: compiled verdict %v, legacy %v (tree %s)", trial, got, want, tr)
		}
	}
	// Mutually exclusive ties (alternatives of one key) stay accepted.
	tr := workload.BID(rng, 6, 3)
	if err := ValidateScores(tr); err != nil {
		t.Fatalf("BID tree rejected: %v", err)
	}
}

// TestRankDistDistCopy pins that Dist hands out an independent copy of
// the flat row (mutating it must not corrupt the shared distribution).
func TestRankDistDistCopy(t *testing.T) {
	tr := testTree(1, 5, 6, 2)
	rd, err := Ranks(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	key := tr.Keys()[0]
	d := rd.Dist(key)
	orig := rd.PrEq(key, 1)
	d[0] = math.Inf(1)
	if rd.PrEq(key, 1) != orig {
		t.Fatal("mutating Dist's copy corrupted the shared distribution")
	}
	if rd.Dist("no-such-key") != nil {
		t.Fatal("unknown key should yield nil")
	}
}

// TestExpectedRankSingleTuple covers the smallest tree the compiled
// sweeps handle.
func TestExpectedRankSingleTuple(t *testing.T) {
	if _, err := ExpectedRank(testTree(0, 1, 1, 1)); err != nil {
		t.Fatalf("single-tuple tree: %v", err)
	}
}

// assertArenaMatchesFresh compares ar with a newly built arena of the same
// shape on everything an evaluation can read: each instruction row's
// effective length and the coefficients within it.
func assertArenaMatchesFresh(t *testing.T, p *Program, ar *arena, label string) {
	t.Helper()
	fresh := newArena(p, ar.xcap, ar.ycap)
	for id := range ar.insts {
		for y := 0; y <= ar.ycap; y++ {
			li := id*(ar.ycap+1) + y
			if ar.lens[li] != fresh.lens[li] {
				t.Fatalf("%s: instruction %d row %d length %d, fresh %d", label, id, y, ar.lens[li], fresh.lens[li])
			}
			base := id*ar.sz + y*ar.w
			for i := 0; i < int(fresh.lens[li]); i++ {
				if ar.vals[base+i] != fresh.vals[base+i] {
					t.Fatalf("%s: instruction %d row %d coeff %d = %v, fresh %v",
						label, id, y, i, ar.vals[base+i], fresh.vals[base+i])
				}
			}
		}
	}
}

// TestArenaMissedByPatchIsRefreshed pins the stale-arena check on both
// places an arena can be during Apply: held outside the pool (as an arena
// in another P's private sync.Pool slot is, for the patching goroutine)
// and sitting in the pool across two patches.  Either way the next
// acquisition must yield the fresh arena's state.
func TestArenaMissedByPatchIsRefreshed(t *testing.T) {
	// Three-alternative blocks: the binarized partial sum of a block's
	// first two edges depends on the weights even at the all-zero
	// assignment (a two-alternative block sums to 1 under any weights).
	blocks := make([]andxor.Block, 4)
	for b := range blocks {
		key := fmt.Sprintf("t%d", b)
		blocks[b] = andxor.Block{
			Alternatives: []types.Leaf{{Key: key, Score: float64(30 - b)}, {Key: key, Score: float64(20 - b)}, {Key: key, Score: float64(10 - b)}},
			Probs:        []float64{0.3, 0.3, 0.3},
		}
	}
	tr, err := andxor.BID(blocks)
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(tr)
	k := 4
	if _, err := p.Ranks(k); err != nil { // warm the pool
		t.Fatal(err)
	}
	alts := tr.LeafAlternatives()
	setProb := func(i int, prob float64) {
		t.Helper()
		d, err := tr.Apply(andxor.Update{Kind: andxor.UpdateSetProb, Key: alts[i].Key, Score: alts[i].Score, Prob: prob, Renormalize: true})
		if err != nil {
			t.Fatal(err)
		}
		if np, patched, _ := p.Apply(tr, d); np != p || !patched {
			t.Fatal("weight update was not patched in place")
		}
	}

	held := p.acquireArena(k-1, 1)
	setProb(0, 0.15)
	p.releaseArena(held)
	ar := p.acquireArena(k-1, 1)
	assertArenaMatchesFresh(t, p, ar, "held outside the pool during a patch")
	p.releaseArena(ar)

	setProb(3, 0.35)
	setProb(6, 0.55)
	assertArenaMatchesFresh(t, p, p.acquireArena(k-1, 1), "pooled across two patches")

	want, err := Compile(tr).Ranks(k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Ranks(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range tr.Keys() {
		for i := 1; i <= k; i++ {
			if got.PrEq(key, i) != want.PrEq(key, i) {
				t.Fatalf("PrEq(%q, %d) = %v after patches, cold compile %v", key, i, got.PrEq(key, i), want.PrEq(key, i))
			}
		}
	}
}
