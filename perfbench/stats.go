package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q of all samples at or below it.  xs is
// left as it was.  An empty sample has no quantile and reads as 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// mean is the arithmetic mean; 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio divides num by its base den; a ratio over an empty base is 0, so
// a layer a workload never reaches reports 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a half-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the part of parent that none of the children cover: the
// parent's duration minus the union of its children's intervals, each
// clipped to the parent.  Overlapping children (a hedged duplicate
// racing the first attempt) are counted once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := int64(0)
	var cur interval
	for i, c := range clipped {
		if i == 0 || c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}

// dueLatencies turns per-request due and completion times (nanoseconds)
// into open-loop latencies and generator lateness, both in microseconds.
// Latency runs from when a request was due, not from when it was sent,
// so a stall that delays sending is charged to every request it held up.
func dueLatencies(due, sent, done []int64) (latency, late []float64) {
	latency = make([]float64, len(due))
	late = make([]float64, len(due))
	for i := range due {
		latency[i] = float64(done[i]-due[i]) / 1e3
		late[i] = float64(sent[i]-due[i]) / 1e3
	}
	return latency, late
}

// hist counts latency samples, in µs, in log-spaced buckets, so a
// window takes the same memory however many operations it holds.
// Bucket i covers [histMin·histGrowth^i, histMin·histGrowth^(i+1));
// samples outside the range land in the first or the last bucket.
type hist struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histMin     = 1.0   // µs
	histGrowth  = 1.005 // each bucket is 0.5% wide
	histBuckets = 4096  // up to about 700 s
)

func (h *hist) add(us float64) {
	i := 0
	if us > histMin {
		i = min(int(math.Log(us/histMin)/math.Log(histGrowth)), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the nearest-rank q-quantile (0 < q <= 1), placed inside
// its bucket by its rank among the bucket's samples, as if they were
// spread evenly (in log scale) across it; so it is within 0.5% of the
// exact nearest-rank sample.  An empty histogram reads as 0.
func (h *hist) quantile(q float64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	rank := max(math.Ceil(q*float64(h.n)), 1)
	below := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if below+float64(c) >= rank {
			return histMin * math.Pow(histGrowth, float64(i)+(rank-below-0.5)/float64(c))
		}
		below += float64(c)
	}
	return histMin * math.Pow(histGrowth, histBuckets)
}

// windowed is the median, over the non-empty windows, of each window's
// q-quantile.  A stall of the shared host moves the windows it falls in,
// not the median window.
func windowed(windows []*hist, q float64) float64 {
	var per []float64
	for _, w := range windows {
		if w != nil && w.n > 0 {
			per = append(per, w.quantile(q))
		}
	}
	return median(per)
}

// merged joins every window's samples.
func merged(windows []*hist) *hist {
	all := &hist{}
	for _, w := range windows {
		if w != nil {
			all.merge(w)
		}
	}
	return all
}
