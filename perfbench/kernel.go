package main

// Direct timings of the kernel and family packages, taken after the load
// on the workload's own trees and parameters.  They name the compute a
// cold read or a write pays below the engine's cache.

import (
	"context"
	"strings"
	"time"

	"consensus/internal/andxor"
	"consensus/internal/approx"
	"consensus/internal/cluster"
	"consensus/internal/genfunc"
	"consensus/internal/setconsensus"
)

// minKernelTime is how long each entry point is called over and over,
// after one untimed call, so that a timing is a warm per-call cost
// averaged over many calls, as testing.B takes it.
const minKernelTime = 10 * time.Millisecond

// kernelEpsilon is the error bound of the timed approx.Ranks calls.
const kernelEpsilon = 0.02

// kernelTimes returns, for each timed entry point, the median over the
// workload's trees of its mean time per call, in µs.
func kernelTimes(in *inputs) map[string]float64 {
	samples := map[string][]float64{}
	perCall := func(name string, fn func()) {
		fn()
		n, t0 := 0, time.Now()
		for n == 0 || time.Since(t0) < minKernelTime {
			fn()
			n++
		}
		samples[name] = append(samples[name], float64(time.Since(t0).Nanoseconds())/1e3/float64(n))
	}
	k := in.shape.K
	for _, nt := range in.trees {
		switch {
		case strings.HasPrefix(nt.name, "lab"):
			perCall("cluster.fromtree_us", func() { cluster.FromTree(nt.tree) })
		case strings.HasPrefix(nt.name, "ind") || nt.name == "side":
			t := nt.tree.Clone()
			perCall("genfunc.compile_us", func() { genfunc.Compile(t) })
			p := genfunc.Compile(t)
			perCall("genfunc.ranks_us", func() { _, _ = p.Ranks(k) })
			perCall("setconsensus.jaccard_us", func() { _, _, _ = setconsensus.MeanWorldJaccard(t) })
			perCall("approx.ranks_us", func() {
				_, _ = approx.Ranks(context.Background(), t, k, approx.Budget{Epsilon: kernelEpsilon}, approx.Options{Seed: 1})
			})
			// A write: the tree takes a set-prob update and the program
			// repairs itself from the delta.  The probability alternates
			// between two values, so every round changes the tree.
			leaf := t.LeafAlternatives()[0]
			var treeTime, progTime time.Duration
			round := func(n int) {
				u := andxor.Update{Kind: andxor.UpdateSetProb, Key: leaf.Key, Score: leaf.Score, Prob: 0.4 + 0.2*float64(n%2)}
				t0 := time.Now()
				ds, _ := t.ApplyAll([]andxor.Update{u})
				t1 := time.Now()
				p.ApplyAll(t, ds)
				treeTime += t1.Sub(t0)
				progTime += time.Since(t1)
			}
			round(0)
			treeTime, progTime = 0, 0
			n := 0
			for n == 0 || treeTime+progTime < minKernelTime {
				n++
				round(n)
			}
			samples["andxor.apply_us"] = append(samples["andxor.apply_us"], float64(treeTime.Nanoseconds())/1e3/float64(n))
			samples["genfunc.apply_us"] = append(samples["genfunc.apply_us"], float64(progTime.Nanoseconds())/1e3/float64(n))
		}
	}
	out := map[string]float64{}
	for name, xs := range samples {
		out[name] = median(xs)
	}
	return out
}
