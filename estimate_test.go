package consensus

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"consensus/internal/andxor"
	"consensus/internal/exact"
	"consensus/internal/numeric"
	"consensus/internal/setconsensus"
	"consensus/internal/topk"
	"consensus/internal/types"
	"consensus/internal/workload"
)

func TestEstimateExpectedMatchesExact(t *testing.T) {
	db := quickDB(t)
	// Exact expected world size = sum of marginals = 0.9+0.6+0.4.
	est, err := EstimateExpected(db, func(w *World) float64 { return float64(w.Len()) }, 30000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-1.9) > 0.03 {
		t.Fatalf("estimate %v, want ~1.9", est)
	}
}

func TestCompareAnswersOrdersCandidates(t *testing.T) {
	db := quickDB(t)
	k := 2
	good, err := TopKMean(db, k, MetricSymmetricDifference)
	if err != nil {
		t.Fatal(err)
	}
	bad := TopKList{"c", "b"} // drops the near-certain "a"
	fGood := func(w *World) float64 {
		return float64(len(good)) - overlap(good, TopKFromWorld(w, k))
	}
	fBad := func(w *World) float64 {
		return float64(len(bad)) - overlap(bad, TopKFromWorld(w, k))
	}
	cmp, err := CompareAnswers(db, fGood, fBad, 20000, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Diff.Mean >= 0 {
		t.Fatalf("the Theorem 3 answer should dominate: %+v", cmp)
	}
}

func overlap(a, b TopKList) float64 {
	n := 0.0
	for _, x := range a {
		if b.Contains(x) {
			n++
		}
	}
	return n
}

func TestHoeffdingSamplesFacade(t *testing.T) {
	n, err := HoeffdingSamples(0.05, 0, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if n < 500 || n > 1000 {
		t.Fatalf("n = %d out of expected range", n)
	}
}

func TestRankDistributionParallelFacade(t *testing.T) {
	db := quickDB(t)
	seq, err := RankDistribution(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RankDistributionParallel(db, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range seq.Keys() {
		if !numeric.AlmostEqual(seq.PrTopK(key), par.PrTopK(key), 1e-12) {
			t.Fatalf("parallel mismatch for %s", key)
		}
	}
}

func TestTopKFromWorld(t *testing.T) {
	w, err := NewWorld(
		Leaf{Key: "x", Score: 1},
		Leaf{Key: "y", Score: 9},
		Leaf{Key: "z", Score: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	got := TopKFromWorld(w, 2)
	if !got.Equal(TopKList{"y", "z"}) {
		t.Fatalf("got %v", got)
	}
	if got := TopKFromWorld(w, -1); len(got) != 0 {
		t.Fatalf("TopKFromWorld(w, -1) = %v, want an empty answer", got)
	}
}

func TestEstimateExpectedMatchesEnumeration(t *testing.T) {
	tr := workload.Nested(rand.New(rand.NewSource(201)), 6, 2)
	f := func(w *World) float64 { return float64(w.Len()) }
	want := exact.ExpectedOver(exact.MustEnumerate(tr), f)
	est, err := EstimateExpected(tr, f, 40000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-want) > 5*est.StdErr+0.02 {
		t.Fatalf("estimate %v too far from exact %g", est, want)
	}
	if est.Samples != 40000 || est.StdErr <= 0 {
		t.Fatalf("estimate metadata wrong: %+v", est)
	}
	if est.String() == "" {
		t.Fatal("String must render")
	}
}

func TestEstimateExpectedValidation(t *testing.T) {
	tr := workload.Independent(rand.New(rand.NewSource(202)), 3)
	if _, err := EstimateExpected(tr, func(*World) float64 { return 0 }, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("samples=0 must error")
	}
}

// TestEstimateExpectedCancellation verifies the sampling loop honors its
// context: with a sample count that would take minutes to drain, an
// already-cancelled context and one cancelled mid-loop must both return
// an error in well under a second.
func TestEstimateExpectedCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(208))
	tr := workload.BID(rng, 40, 2)
	const farTooMany = 1 << 30
	size := func(w *World) float64 { return float64(w.Len()) }
	start := time.Now()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EstimateExpectedContext(cancelled, tr, size, farTooMany, rng); err == nil {
		t.Fatal("EstimateExpectedContext with a cancelled context must error")
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancelMid()
	}()
	if _, err := EstimateExpectedContext(ctx, tr, size, farTooMany, rng); err == nil {
		t.Fatal("EstimateExpectedContext must stop when cancelled mid-run")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to stop the sampling loop", elapsed)
	}
}

func TestCompareAnswersCommonRandomNumbers(t *testing.T) {
	tr := workload.BID(rand.New(rand.NewSource(205)), 8, 2)
	k := 3
	tauA, _, err := topk.MeanSymDiff(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	tauB := append(topk.List(nil), tauA...)
	tauB[0], tauB[len(tauB)-1] = tauB[len(tauB)-1], tauB[0] // perturb
	fA := func(w *World) float64 { return topk.NormSymDiff(tauA, topk.FromWorld(w, k), k) }
	fB := func(w *World) float64 { return topk.NormSymDiff(tauB, topk.FromWorld(w, k), k) }
	cmp, err := CompareAnswers(tr, fA, fB, 20000, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Paired difference must be consistent: Diff.Mean == A.Mean - B.Mean.
	if !numeric.AlmostEqual(cmp.Diff.Mean, cmp.A.Mean-cmp.B.Mean, 1e-9) {
		t.Fatalf("paired means inconsistent: %+v", cmp)
	}
	// tauA and tauB share k-1 elements: the distances are highly
	// correlated, so pairing should cut the standard error of the
	// difference versus the independent-sum bound.
	independent := math.Sqrt(cmp.A.StdErr*cmp.A.StdErr + cmp.B.StdErr*cmp.B.StdErr)
	if cmp.Diff.StdErr > independent {
		t.Fatalf("pairing did not help: paired %g vs independent %g", cmp.Diff.StdErr, independent)
	}
	if _, err := CompareAnswers(tr, fA, fB, 0, rand.New(rand.NewSource(2))); err == nil {
		t.Fatal("samples=0 must error")
	}
}

// The paired comparison reproduces the exact ordering of expected
// distances between the mean world and a perturbed world.
func TestCompareAnswersAgreesWithExactOrdering(t *testing.T) {
	tr := workload.Nested(rand.New(rand.NewSource(206)), 6, 2)
	mean := setconsensus.MeanWorldSymDiff(tr)
	worse := mean.Clone()
	// Perturb: toggle one alternative.
	for _, l := range tr.LeafAlternatives() {
		if !worse.Contains(l) {
			worse.Add(l)
			break
		}
	}
	exactA := setconsensus.ExpectedSymDiff(tr, mean)
	exactB := setconsensus.ExpectedSymDiff(tr, worse)
	fA := func(w *World) float64 { return float64(types.SymDiff(mean, w)) }
	fB := func(w *World) float64 { return float64(types.SymDiff(worse, w)) }
	cmp, err := CompareAnswers(tr, fA, fB, 30000, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if (exactA < exactB) != (cmp.Diff.Mean < 0) && math.Abs(cmp.Diff.Mean) > 3*cmp.Diff.StdErr {
		t.Fatalf("sampled ordering (%+v) contradicts exact (%g vs %g)", cmp.Diff, exactA, exactB)
	}
}

// oracleSample is the reference world draw: the recursive walk that
// consumes one rng.Float64() per visited or-node in depth-first order.
// Tree.Sample used to be this walk; the compiled andxor.Sampler behind
// every sampled answer must reproduce its draws.
func oracleSample(t *Tree, rng *rand.Rand) *World {
	w := &World{}
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

// oracleEstimate is the mean/standard-error arithmetic the sampled
// estimates have always reported.
func oracleEstimate(sum, sumSq float64, n int) Estimate {
	mean := sum / float64(n)
	v := 0.0
	if n > 1 {
		v = (sumSq - sum*mean) / float64(n-1)
		if v < 0 {
			v = 0
		}
	}
	return Estimate{Mean: mean, StdErr: math.Sqrt(v / float64(n)), Samples: n}
}

// TestSampledAnswersMatchOracle pins EstimateExpected, CompareAnswers and
// UTopKSampled at fixed seeds to the same loops run over the oracle walk:
// the same seed must give bit-identical answers.
func TestSampledAnswersMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trees := []*Tree{
		workload.Nested(rng, 10, 3),
		workload.BID(rng, 12, 3),
		workload.Independent(rng, 9),
	}
	// Observables read the world only through order-independent views.
	fA := func(w *World) float64 {
		v := 0.0
		for _, l := range w.Leaves() {
			v += l.Score * l.Score
		}
		return v
	}
	fB := func(w *World) float64 { return float64(w.Len()) }
	const n, k = 600, 3
	for ti, tr := range trees {
		seed := int64(40 + ti)
		got, err := EstimateExpected(tr, fA, n, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		var cmp Comparison
		if cmp, err = CompareAnswers(tr, fA, fB, n, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
		tau, freq, err := UTopKSampled(tr, k, n, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}

		orng := rand.New(rand.NewSource(seed))
		var sa, sqa, sb, sqb, sd, sqd float64
		counts := map[string]int{}
		rep := map[string]TopKList{}
		for i := 0; i < n; i++ {
			w := oracleSample(tr, orng)
			a, b := fA(w), fB(w)
			sa, sqa = sa+a, sqa+a*a
			sb, sqb = sb+b, sqb+b*b
			sd, sqd = sd+(a-b), sqd+(a-b)*(a-b)
			top := TopKFromWorld(w, k)
			fp := strings.Join(top, "\x00")
			counts[fp]++
			rep[fp] = top
		}
		if want := oracleEstimate(sa, sqa, n); got != want {
			t.Errorf("tree %d: EstimateExpected %+v, oracle %+v", ti, got, want)
		}
		want := Comparison{A: oracleEstimate(sa, sqa, n), B: oracleEstimate(sb, sqb, n), Diff: oracleEstimate(sd, sqd, n)}
		if cmp != want {
			t.Errorf("tree %d: CompareAnswers %+v, oracle %+v", ti, cmp, want)
		}
		bestC := -1
		var best TopKList
		for fp, c := range counts {
			if c > bestC || (c == bestC && strings.Join(best, "\x00") > fp) {
				bestC, best = c, rep[fp]
			}
		}
		if !tau.Equal(best) || freq != float64(bestC)/n {
			t.Errorf("tree %d: UTopKSampled %v (%g), oracle %v (%g)", ti, tau, freq, best, float64(bestC)/n)
		}
	}
}
