package topk

import (
	"math/rand"
	"testing"

	"consensus/internal/andxor"
	"consensus/internal/numeric"
	"consensus/internal/workload"
)

// Section 5.2's observation: with the threshold set so PT-k returns
// exactly k tuples, PT-k coincides with the mean answer under d_Delta.
func TestPTkRecoversMeanAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 10; trial++ {
		tr := workload.BID(rng, 6, 2)
		k := 3
		mean, rd, err := MeanSymDiff(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		// Set the threshold at the k-th largest Pr(r(t)<=k).
		thr := rd.PrTopK(mean[len(mean)-1])
		pt, err := PTk(tr, k, thr)
		if err != nil {
			t.Fatal(err)
		}
		// PT-k returns every tuple >= thr; with distinct probabilities it
		// is exactly the mean answer.
		if len(pt) == len(mean) && !pt.Equal(mean) {
			t.Fatalf("trial %d: PT-k %v != mean %v", trial, pt, mean)
		}
		for _, key := range mean {
			if !pt.Contains(key) {
				t.Fatalf("trial %d: mean member %s missing from PT-k %v", trial, key, pt)
			}
		}
	}
}

func TestGlobalTopKEqualsMean(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	tr := workload.BID(rng, 7, 2)
	g, err := GlobalTopK(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	mean, _, err := MeanSymDiff(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(mean) {
		t.Fatalf("global %v != mean %v", g, mean)
	}
}

func TestUTopKExactAndSampledAgree(t *testing.T) {
	tr := andxor.Figure1iii()
	// The three worlds have distinct top-2 answers with probs .3/.3/.4;
	// U-top-2 is pw3's answer [t2 t4].
	tau, p, err := UTopK(tr, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tau.Equal(List{"t2", "t4"}) || !numeric.AlmostEqual(p, 0.4, 1e-12) {
		t.Fatalf("UTopK = %v (%g), want [t2 t4] (0.4)", tau, p)
	}
	sTau, sP, err := UTopKSampled(tr, 2, 20000, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !sTau.Equal(tau) {
		t.Fatalf("sampled UTopK = %v, want %v", sTau, tau)
	}
	if sP < 0.35 || sP > 0.45 {
		t.Fatalf("sampled prob %g too far from 0.4", sP)
	}
	if _, _, err := UTopKSampled(tr, 2, 0, rand.New(rand.NewSource(5))); err == nil {
		t.Fatal("samples=0 must error")
	}
}

func TestExpectedRankTopKOrdering(t *testing.T) {
	// Near-certain high-score tuple must come first under expected rank.
	tr := mustTree(t, []blockSpec{
		{"hi", 100, 0.99},
		{"mid", 50, 0.9},
		{"lo", 10, 0.9},
	})
	tau, err := ExpectedRankTopK(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !tau.Equal(List{"hi", "mid", "lo"}) {
		t.Fatalf("tau = %v", tau)
	}
}

func TestExpectedScoreTopK(t *testing.T) {
	// Expected score can disagree with rank semantics: a mid-score
	// near-certain tuple can beat a high-score unlikely one.
	tr := mustTree(t, []blockSpec{
		{"risky", 100, 0.1}, // E[score] = 10
		{"solid", 30, 0.9},  // E[score] = 27
	})
	tau := ExpectedScoreTopK(tr, 1)
	if !tau.Equal(List{"solid"}) {
		t.Fatalf("tau = %v, want [solid]", tau)
	}
}

// Experiment E15 in miniature: Theorem 3 guarantees the mean answer's
// E[d_Delta] lower-bounds every baseline's.
func TestMeanDominatesBaselinesUnderSymDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	for trial := 0; trial < 10; trial++ {
		tr := workload.Nested(rng, 5, 2)
		k := 2
		mean, rd, err := MeanSymDiff(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		meanE := ExpectedNormSymDiff(rd, mean, k)
		var baselines []List
		if u, _, err := UTopK(tr, k, 0); err == nil {
			baselines = append(baselines, u)
		}
		if er, err := ExpectedRankTopK(tr, k); err == nil {
			baselines = append(baselines, er[:min(len(er), k)])
		}
		baselines = append(baselines, ExpectedScoreTopK(tr, k))
		if md, _, err := MedianSymDiff(tr, k); err == nil {
			baselines = append(baselines, md)
		}
		for i, b := range baselines {
			// Theorem 3's optimality is over answers of size exactly k; a
			// U-top-k answer of a small world can be shorter and is then
			// outside the comparison class.
			if len(b) != len(mean) {
				continue
			}
			if e := ExpectedNormSymDiff(rd, b, k); e < meanE-1e-9 {
				t.Fatalf("trial %d: baseline %d (%v) with E=%g beats mean %v with E=%g",
					trial, i, b, e, mean, meanE)
			}
		}
	}
}
