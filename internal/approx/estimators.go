package approx

import (
	"context"
	"fmt"

	"consensus/internal/andxor"
)

// RankEstimate is the sampling-based counterpart of genfunc.RankDist: the
// estimated rank distribution of every tuple key up to cutoff K.  It
// satisfies topk.RankSource, so the Theorem 3/4 consensus algorithms run
// on it unchanged.  Every PrEq/PrLE value carries the simultaneous
// confidence radius in Info.
type RankEstimate struct {
	K    int
	Info Info

	keys []string
	eq   map[string][]float64 // eq[key][i] = estimated Pr(r(t) = i), 1 <= i <= K
	le   map[string][]float64 // le[key][i] = estimated Pr(r(t) <= i)
}

// Keys returns the tuple keys covered, sorted.
func (re *RankEstimate) Keys() []string { return re.keys }

// PrEq returns the estimated Pr(r(t) = i) for 1 <= i <= K.
func (re *RankEstimate) PrEq(key string, i int) float64 {
	d, ok := re.eq[key]
	if !ok || i < 1 || i > re.K {
		return 0
	}
	return d[i]
}

// PrLE returns the estimated Pr(r(t) <= i) for 1 <= i <= K.
func (re *RankEstimate) PrLE(key string, i int) float64 {
	d, ok := re.le[key]
	if !ok || i < 1 {
		return 0
	}
	if i > re.K {
		i = re.K
	}
	return d[i]
}

// Dist returns a copy of the estimated rank distribution of key: element
// i-1 holds Pr(r(t) = i).  Unknown keys yield nil.
func (re *RankEstimate) Dist(key string) []float64 {
	d, ok := re.eq[key]
	if !ok {
		return nil
	}
	return append([]float64(nil), d[1:]...)
}

// countWorlds draws enough worlds for every one of coords [0,1]-valued
// frequencies to land within the budget simultaneously (union bound),
// split over the Streams RNG streams, and counts them into an int64
// vector of length width through an observer from newObserver (one per
// worker, so observers may carry scratch state).  Each worker counts into
// its own vector and the vectors are summed; integer counts make the
// merge exact, so the result depends only on the seed, not on scheduling
// or the worker count.
func countWorlds(ctx context.Context, s *andxor.Sampler, coords, width int, b Budget, o Options,
	newObserver func() func(counts []int64, world []int32)) ([]int64, Info, error) {
	deltaCoord := b.Delta / float64(coords)
	total, err := hoeffdingSamples(b.Epsilon, deltaCoord, o.MaxSamples)
	if err != nil {
		return nil, Info{}, err
	}
	sizes := split(total)
	type worker struct {
		counts  []int64
		observe func(counts []int64, world []int32)
	}
	workers := make([]worker, o.Workers)
	for w := range workers {
		workers[w] = worker{counts: make([]int64, width), observe: newObserver()}
	}
	err = forStreams(o.Workers, func(w, si int) error {
		wk := workers[w]
		return s.Draw(ctx, sizes[si], streamRNG(o.Seed, si), func(world []int32) { wk.observe(wk.counts, world) })
	})
	if err != nil {
		return nil, Info{}, err
	}
	merged := workers[0].counts
	for _, wk := range workers[1:] {
		for i, c := range wk.counts {
			merged[i] += c
		}
	}
	return merged, Info{Radius: HoeffdingRadius(total, 0, 1, deltaCoord), Samples: total}, nil
}

// Ranks estimates the rank distribution of every tuple key up to cutoff k
// by sampling: each drawn world is sorted by score (via one precomputed
// global order) and each present key's rank counted.  The reported radius
// holds simultaneously for all PrEq and PrLE coordinates (union bound over
// 2k per key).
func Ranks(ctx context.Context, t *andxor.Tree, k int, b Budget, o Options) (*RankEstimate, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	b, o = b.Normalized(), o.normalized()
	s := andxor.NewSampler(t)
	keys := s.Keys()
	if k > len(keys) {
		k = len(keys)
	}
	if k < 1 {
		return nil, fmt.Errorf("approx: rank cutoff k = %d must be positive", k)
	}
	// The union bound covers the eq and le cells, 2k per key.
	counts, info, err := countWorlds(ctx, s, 2*k*len(keys), len(keys)*k, b, o, func() func(counts []int64, world []int32) {
		present := make([]bool, s.NumLeaves())
		var ranked []int32
		return func(counts []int64, world []int32) {
			// The j-th key of the world's ranking has rank j: scores are
			// distinct across co-occurring keys, and alternatives of one
			// key are mutually exclusive.
			ranked = s.RankedKeys(world, k, present, ranked[:0])
			for r, ki := range ranked {
				counts[int(ki)*k+r]++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	re := &RankEstimate{
		K:    k,
		Info: info,
		keys: keys,
		eq:   make(map[string][]float64, len(keys)),
		le:   make(map[string][]float64, len(keys)),
	}
	n := float64(info.Samples)
	for ki, key := range keys {
		eq := make([]float64, k+1)
		le := make([]float64, k+1)
		acc := int64(0)
		for i := 1; i <= k; i++ {
			c := counts[ki*k+i-1]
			eq[i] = float64(c) / n
			acc += c // the eq cells are disjoint events, so Pr(r<=i) sums exactly
			le[i] = float64(acc) / n
		}
		re.eq[key] = eq
		re.le[key] = le
	}
	return re, nil
}

// SizeDist estimates the world-size distribution Pr(|pw| = i), returning a
// vector indexed by size (length numLeaves+1) and the realized accuracy.
func SizeDist(ctx context.Context, t *andxor.Tree, b Budget, o Options) ([]float64, Info, error) {
	if err := b.Validate(); err != nil {
		return nil, Info{}, err
	}
	b, o = b.Normalized(), o.normalized()
	s := andxor.NewSampler(t)
	width := s.NumLeaves() + 1
	counts, info, err := countWorlds(ctx, s, width, width, b, o, func() func(counts []int64, world []int32) {
		return func(counts []int64, world []int32) {
			counts[len(world)]++
		}
	})
	if err != nil {
		return nil, Info{}, err
	}
	out := make([]float64, width)
	for i, c := range counts {
		out[i] = float64(c) / float64(info.Samples)
	}
	return out, info, nil
}

// Marginals estimates every key's marginal presence probability.
func Marginals(ctx context.Context, t *andxor.Tree, b Budget, o Options) (map[string]float64, Info, error) {
	if err := b.Validate(); err != nil {
		return nil, Info{}, err
	}
	b, o = b.Normalized(), o.normalized()
	s := andxor.NewSampler(t)
	keys := s.Keys()
	width := len(keys)
	if width == 0 {
		return map[string]float64{}, Info{}, nil
	}
	counts, info, err := countWorlds(ctx, s, width, width, b, o, func() func(counts []int64, world []int32) {
		leafKey := s.LeafKeys()
		return func(counts []int64, world []int32) {
			for _, li := range world {
				counts[leafKey[li]]++ // at most one alternative per key is present
			}
		}
	})
	if err != nil {
		return nil, Info{}, err
	}
	out := make(map[string]float64, width)
	for ki, key := range keys {
		out[key] = float64(counts[ki]) / float64(info.Samples)
	}
	return out, info, nil
}
