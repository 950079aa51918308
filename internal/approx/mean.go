package approx

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"consensus/internal/andxor"
	"consensus/internal/topk"
)

// adaptiveMean estimates the mean of a [0,1]-valued observable.  Round r
// draws 256*2^(r-1) observations (trimmed at the end to land on the
// Hoeffding worst-case count) split over the Streams RNG streams, whose
// partial moments merge in stream order; after each round the loop stops
// as soon as the empirical-Bernstein radius at the round's share of delta
// reaches eps.  The checkpoints are fixed totals, so the answer and the
// sample count depend only on the seed.  Low variance therefore stops
// early while the guarantee never degrades.  newObserver is called once
// per worker, so observers may carry scratch state.
func adaptiveMean(ctx context.Context, s *andxor.Sampler, b Budget, o Options,
	newObserver func() func(world []int32) float64) (Estimate, error) {
	// Half the delta funds the worst-case Hoeffding cap, the other half is
	// spread over the adaptive checkpoints (delta/2 * 1/(r(r+1)) at round
	// r sums to delta/2).
	nCap, err := hoeffdingSamples(b.Epsilon, b.Delta/2, o.MaxSamples)
	if err != nil {
		return Estimate{}, err
	}
	var rngs [Streams]*rand.Rand
	for si := range rngs {
		rngs[si] = streamRNG(o.Seed, si)
	}
	observers := make([]func(world []int32) float64, o.Workers)
	for w := range observers {
		observers[w] = newObserver()
	}
	var m Moments
	for round, batch := 1, 256; ; round, batch = round+1, batch*2 {
		sizes := split(min(batch, nCap-m.N))
		var parts [Streams]Moments
		err := forStreams(o.Workers, func(w, si int) error {
			return s.Draw(ctx, sizes[si], rngs[si], func(world []int32) { parts[si].Add(observers[w](world)) })
		})
		if err != nil {
			return Estimate{}, err
		}
		for _, p := range parts { // merge in stream order: deterministic
			m.Merge(p)
		}
		deltaRound := b.Delta / 2 / float64(round*(round+1))
		radius := bernsteinRadius(m.N, m.Variance(), deltaRound)
		if radius <= b.Epsilon {
			return Estimate{Value: m.Mean(), Radius: radius, Samples: m.N}, nil
		}
		if m.N >= nCap {
			hr := HoeffdingRadius(m.N, 0, 1, b.Delta/2)
			return Estimate{Value: m.Mean(), Radius: math.Min(radius, hr), Samples: m.N}, nil
		}
	}
}

// normalizedDistance returns the metric's distance between a fixed answer
// tau and a world's top-k answer, rescaled to [0, 1], plus an error for
// unknown metrics.  Symmetric difference and intersection are already
// normalized; footrule is divided by its maximum k(k+1) and the top-k
// Kendall distance d_K (penalty 0) by its maximum k^2, attained by two
// disjoint answers (each cross pair disagrees, while same-list pairs whose
// partners are absent from the other list carry penalty p = 0).
func normalizedDistance(metric string, k int) (func(tau, w topk.List) float64, error) {
	switch metric {
	case "symdiff":
		return func(tau, w topk.List) float64 { return topk.NormSymDiff(tau, w, k) }, nil
	case "intersection":
		return func(tau, w topk.List) float64 { return topk.Intersection(tau, w, k) }, nil
	case "footrule":
		max := float64(k * (k + 1))
		return func(tau, w topk.List) float64 { return topk.Footrule(tau, w, k) / max }, nil
	case "kendall":
		max := float64(k * k)
		return func(tau, w topk.List) float64 { return topk.Kendall(tau, w, 0) / max }, nil
	default:
		return nil, fmt.Errorf("approx: unknown top-k metric %q", metric)
	}
}

// ExpectedTopKDistance estimates E[d(tau, tau_pw)] for a fixed candidate
// answer tau under the named metric ("symdiff", "intersection",
// "footrule", "kendall"), normalized to [0, 1] (see normalizedDistance).
// This is the paper's Section 5.5 escape hatch made general: quantities
// like the mean Kendall distance have no exact algorithm, so they are
// estimated by sampling with an explicit budget.
func ExpectedTopKDistance(ctx context.Context, t *andxor.Tree, tau topk.List, k int, metric string, b Budget, o Options) (Estimate, error) {
	if err := b.Validate(); err != nil {
		return Estimate{}, err
	}
	if k < 1 {
		return Estimate{}, fmt.Errorf("approx: rank cutoff k = %d must be positive", k)
	}
	dist, err := normalizedDistance(metric, k)
	if err != nil {
		return Estimate{}, err
	}
	b, o = b.Normalized(), o.normalized()
	s := andxor.NewSampler(t)
	keys := s.Keys()
	return adaptiveMean(ctx, s, b, o, func() func(world []int32) float64 {
		present := make([]bool, s.NumLeaves())
		var ranked []int32
		var out topk.List
		return func(world []int32) float64 {
			ranked = s.RankedKeys(world, k, present, ranked[:0])
			out = out[:0]
			for _, ki := range ranked {
				out = append(out, keys[ki])
			}
			return dist(tau, out)
		}
	})
}

// MeanSymDiffTopK estimates the mean top-k answer under the normalized
// symmetric difference metric in two phases: phase one samples the rank
// distribution and takes the k keys with the highest estimated
// Pr(r(t) <= k) (the Theorem 3 consensus applied to estimates); phase two
// estimates the answer's expected distance on fresh draws, so the returned
// Estimate is an unbiased mean with a sound radius.  Because the phase-one
// probabilities are within the rank radius of the truth, the returned
// answer's true expected distance exceeds the optimum by at most
// 2*ranks.Info.Radius.
func MeanSymDiffTopK(ctx context.Context, t *andxor.Tree, k int, b Budget, o Options) (topk.List, Estimate, error) {
	re, err := Ranks(ctx, t, k, b, o)
	if err != nil {
		return nil, Estimate{}, err
	}
	tau := topk.MeanSymDiffRanks(re, re.K)
	o = o.normalized()
	o.Seed ^= 0x5DEECE66D // fresh streams for phase two
	est, err := ExpectedTopKDistance(ctx, t, tau, re.K, "symdiff", b, o)
	if err != nil {
		return nil, Estimate{}, err
	}
	return tau, est, nil
}
