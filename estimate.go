package consensus

import (
	"context"
	"fmt"
	"math/rand"

	"consensus/internal/andxor"
	"consensus/internal/approx"
	"consensus/internal/genfunc"
)

// Estimate is a Monte Carlo estimate of an expectation.
type Estimate struct {
	// Mean is the sample mean of the estimated expectation.
	Mean float64
	// StdErr is the sample standard error (s / sqrt(n)).
	StdErr float64
	// Samples is the number of worlds drawn.
	Samples int
}

// String renders mean ± standard error.
func (e Estimate) String() string {
	return fmt.Sprintf("%.6g ± %.2g (n=%d)", e.Mean, e.StdErr, e.Samples)
}

func estimateOf(m approx.Moments) Estimate {
	return Estimate{Mean: m.Mean(), StdErr: m.StdErr(), Samples: m.N}
}

// Comparison is a paired Monte Carlo comparison of two candidate answers:
// estimates of both expectations and of their difference, all from the
// same world draws (common random numbers), which typically shrinks the
// variance of the difference far below that of independent estimates.
type Comparison struct {
	A, B Estimate
	// Diff estimates E[fA(pw)] - E[fB(pw)].
	Diff Estimate
}

// EstimateExpected estimates E[f(pw)] by sampling possible worlds; use it
// for quantities without a closed form or on databases too large to
// enumerate.
func EstimateExpected(t *Tree, f func(*World) float64, samples int, rng *rand.Rand) (Estimate, error) {
	return EstimateExpectedContext(context.Background(), t, f, samples, rng)
}

// EstimateExpectedContext is EstimateExpected with cancellation: the
// sampling loop stops promptly when ctx is cancelled or its deadline
// passes, returning the context's error.
func EstimateExpectedContext(ctx context.Context, t *Tree, f func(*World) float64, samples int, rng *rand.Rand) (Estimate, error) {
	var m approx.Moments
	if err := sampleWorlds(ctx, t, samples, rng, func(w *World) { m.Add(f(w)) }); err != nil {
		return Estimate{}, err
	}
	return estimateOf(m), nil
}

// CompareAnswers estimates E[fA(pw)] and E[fB(pw)] with common random
// numbers, which typically gives a far tighter estimate of the difference
// than independent runs.
func CompareAnswers(t *Tree, fA, fB func(*World) float64, samples int, rng *rand.Rand) (Comparison, error) {
	var a, b, d approx.Moments
	err := sampleWorlds(context.Background(), t, samples, rng, func(w *World) {
		va, vb := fA(w), fB(w)
		a.Add(va)
		b.Add(vb)
		d.Add(va - vb)
	})
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{A: estimateOf(a), B: estimateOf(b), Diff: estimateOf(d)}, nil
}

// sampleWorlds draws samples worlds with one compiled Sampler and passes
// each, materialized, to observe.
func sampleWorlds(ctx context.Context, t *Tree, samples int, rng *rand.Rand, observe func(*World)) error {
	if samples <= 0 {
		return fmt.Errorf("consensus: samples must be positive, got %d", samples)
	}
	s := andxor.NewSampler(t)
	if err := s.Draw(ctx, samples, rng, func(world []int32) { observe(s.World(world)) }); err != nil {
		return fmt.Errorf("consensus: sampling interrupted: %w", err)
	}
	return nil
}

// HoeffdingSamples returns a sample count sufficient for a (1-delta)
// confidence half-width of eps when the estimated quantity lies in
// [lo, hi].
func HoeffdingSamples(eps, lo, hi, delta float64) (int, error) {
	return approx.HoeffdingSamples(eps, lo, hi, delta)
}

// RankDistributionParallel is RankDistribution computed with a worker
// pool (workers <= 0 selects GOMAXPROCS); results are identical.
func RankDistributionParallel(t *Tree, k, workers int) (*RankDist, error) {
	return genfunc.RanksParallel(t, k, workers)
}

// TopKFromWorld returns the top-k answer of a deterministic world,
// deterministic under score ties.
func TopKFromWorld(w *World, k int) TopKList {
	return TopKList(w.TopK(k))
}
