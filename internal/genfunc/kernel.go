package genfunc

import (
	"math/bits"
	"runtime"
	"sync"

	"consensus/internal/andxor"
	"consensus/internal/types"
)

// This file holds the batched statistic kernels that run on compiled
// programs (see compile.go for the instruction model and arena.go for the
// evaluation arena).
//
// The batched rank kernel exploits that consecutive alternatives in
// descending-score order induce nearly identical leaf assignments: the
// y-mark moves, the handful of leaves whose score lies between the two
// thresholds cross into the x-marked region (each leaf crosses exactly
// once over the whole batch), and the same-key exclusions of the old and
// new alternative swap.  Every step therefore re-evaluates only a few
// root paths instead of the whole tree, turning n full-tree passes into
// O(n·depth·log(fan-in)) incremental path updates.
//
// All kernels draw their arenas and scratch rows from the Program's
// pools, so a warm Program (repeated engine queries, parallel shards)
// evaluates without heap allocations beyond the returned result.

// Ranks computes the same rank distribution as the package-level Ranks on
// the compiled program.  See Ranks for the statistic's definition and the
// validation contract.
func (p *Program) Ranks(k int) (*RankDist, error) {
	if k < 1 {
		return nil, errRankCutoff(k)
	}
	if err := p.ValidateScores(); err != nil {
		return nil, err
	}
	n := len(p.leaves)
	fb := p.acquireFloats(n * k)
	ar := p.acquireArena(k-1, 1)
	p.ranksRange(ar, k, 0, n, fb.s)
	p.releaseArena(ar)
	rd := p.assembleRankDist(k, fb.s)
	p.releaseFloats(fb)
	return rd, nil
}

// RanksParallel computes Ranks with the score-ordered alternative batch
// split into contiguous shards, one worker and one pooled arena per
// shard.  Because every instruction's value is a pure function of the
// current assignment, each shard reproduces exactly the coefficients the
// sequential kernel would, and the leaf-order merge makes the result
// bit-identical to Ranks regardless of worker count.
func (p *Program) RanksParallel(k, workers int) (*RankDist, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(p.leaves)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return p.Ranks(k)
	}
	if k < 1 {
		return nil, errRankCutoff(k)
	}
	if err := p.ValidateScores(); err != nil {
		return nil, err
	}
	fb := p.acquireFloats(n * k)
	contrib := fb.s
	var wg sync.WaitGroup
	base, rem := n/workers, n%workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + base
		if w < rem {
			hi++
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			ar := p.acquireArena(k-1, 1)
			p.ranksRange(ar, k, lo, hi, contrib)
			p.releaseArena(ar)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
	rd := p.assembleRankDist(k, contrib)
	p.releaseFloats(fb)
	return rd, nil
}

// RanksAll computes the rank distributions of several cutoffs with one
// shared sweep at the widest cutoff.  A truncated evaluation is a bitwise
// prefix of a wider one (the accumulation-order property pinned by
// TestRanksCutoffPrefixBitIdentical), so assembling each narrower
// distribution from the shared contribution rows is bit-identical to a
// direct Ranks/RanksParallel call at that cutoff.  The engine's mutation
// repair uses this to re-seed every resident cutoff for the price of the
// widest one.  Duplicate cutoffs are allowed; order is preserved.
func (p *Program) RanksAll(ks []int, workers int) ([]*RankDist, error) {
	if len(ks) == 0 {
		return nil, nil
	}
	kmax := ks[0]
	for _, k := range ks {
		if k < 1 {
			return nil, errRankCutoff(k)
		}
		if k > kmax {
			kmax = k
		}
	}
	if err := p.ValidateScores(); err != nil {
		return nil, err
	}
	n := len(p.leaves)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	fb := p.acquireFloats(n * kmax)
	contrib := fb.s
	if workers <= 1 {
		ar := p.acquireArena(kmax-1, 1)
		p.ranksRange(ar, kmax, 0, n, contrib)
		p.releaseArena(ar)
	} else {
		// The shard split must match RanksParallel's exactly: it depends
		// only on n and workers, so every per-alternative row here is the
		// row that a direct call at any of the cutoffs would compute.
		var wg sync.WaitGroup
		base, rem := n/workers, n%workers
		lo := 0
		for w := 0; w < workers; w++ {
			hi := lo + base
			if w < rem {
				hi++
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				ar := p.acquireArena(kmax-1, 1)
				p.ranksRange(ar, kmax, lo, hi, contrib)
				p.releaseArena(ar)
			}(lo, hi)
			lo = hi
		}
		wg.Wait()
	}
	out := make([]*RankDist, len(ks))
	for i, k := range ks {
		out[i] = p.assembleRankDistStride(k, kmax, contrib)
	}
	p.releaseFloats(fb)
	return out, nil
}

// ranksRange computes the per-alternative rank contributions for the
// score-order positions [lo, hi): contrib[a*k+j] = Pr(alternative a is
// present and ranked j+1), writing only rows owned by this range (shards
// write disjoint rows, so the slice may be shared without locking).  The
// arena must have caps (k-1, 1); beyond the arena and the output rows, a
// run allocates nothing, so reusing both across calls gives zero
// steady-state allocations.
func (p *Program) ranksRange(ar *arena, k, lo, hi int, contrib []float64) {
	ar.reset()
	cross := 0 // byScore positions < cross carry marks for the current threshold
	var prev int32 = -1
	var prevScore float64
	for t := lo; t < hi; t++ {
		a := p.byScore[t]
		s := p.leaves[a].Score
		kid := p.keyID[a]
		// The previous y-marked alternative falls back to its generic mark
		// (the crossing sweep below also covers it except on score ties).
		if prev >= 0 {
			ar.setGeneric(prev, s, kid)
		}
		// Leaves crossing the score threshold become x-marked unless they
		// share the current alternative's key.
		for cross < len(p.byScore) {
			b := p.byScore[cross]
			if p.leaves[b].Score <= s {
				break
			}
			ar.setGeneric(b, s, kid)
			cross++
		}
		// The previous alternative's same-key exclusions return to their
		// generic marks; the current key's higher-scored alternatives are
		// excluded from the x-marking (same-tuple alternatives are mutually
		// exclusive and never outrank each other).
		if prev >= 0 && p.keyID[prev] != kid {
			for _, b := range p.altsOfKey[p.keyID[prev]] {
				if p.leaves[b].Score <= prevScore {
					break
				}
				ar.setGeneric(b, s, kid)
			}
		}
		for _, b := range p.altsOfKey[kid] {
			if p.leaves[b].Score <= s {
				break
			}
			ar.setLeaf(b, 0, 0)
		}
		ar.setLeaf(a, 0, 1)
		ar.flush()
		// Copy the root's y¹ row directly: coefficients beyond its
		// effective length are zero.
		row := contrib[int(a)*k : int(a)*k+k]
		root := len(p.insts) - 1
		n := int(ar.lens[root*2+1])
		rootRow := ar.vals[root*ar.sz+ar.w : root*ar.sz+ar.w+n]
		copy(row, rootRow)
		clear(row[len(rootRow):])
		prev, prevScore = a, s
	}
}

// assembleRankDist folds per-alternative contributions into a RankDist,
// accumulating per key in DFS leaf order — the same accumulation order as
// the legacy evaluator, which keeps sequential and parallel results
// bit-identical.
func (p *Program) assembleRankDist(k int, contrib []float64) *RankDist {
	return p.assembleRankDistStride(k, k, contrib)
}

// assembleRankDistStride folds contribution rows laid out with the given
// row stride (>= k) into a cutoff-k RankDist, reading only each row's
// k-prefix.  With stride == k this is the plain assembly; a wider stride
// lets RanksAll assemble several cutoffs from one shared sweep, relying on
// the truncation-prefix property for the narrower rows.
func (p *Program) assembleRankDistStride(k, stride int, contrib []float64) *RankDist {
	rd := newRankDist(p.keys, p.keyIdx, k)
	for a := 0; a < len(p.leaves); a++ {
		dist := rd.eq[int(p.keyID[a])*(k+1):]
		row := contrib[a*stride : a*stride+k]
		for j := 1; j <= k; j++ {
			dist[j] += row[j-1]
		}
	}
	rd.fillCumulative()
	return rd
}

// Precedence returns Pr(r(keyI) < r(keyJ)) on the compiled program; see
// the package-level Precedence for the statistic's definition.
func (p *Program) Precedence(keyI, keyJ string) float64 {
	if keyI == keyJ {
		return 0
	}
	i, okI := p.findKey(keyI)
	if !okI {
		return 0 // no alternatives: keyI is never present
	}
	j := int32(-1) // unknown keyJ x-marks nothing, like the legacy evaluator
	if jj, ok := p.findKey(keyJ); ok {
		j = jj
	}
	ar := p.acquireArena(0, 1)
	total := 0.0
	p.precedenceSweep(ar, j, func(kid int32, coeff float64) {
		if kid == i {
			total += coeff
		}
	}, func(kid int32) bool { return kid == i })
	p.releaseArena(ar)
	return total
}

// PrecedenceMatrix returns M[i][j] = Pr(r(keys[i]) < r(keys[j])) on the
// compiled program.  One descending-score sweep per target key J fills an
// entire matrix column: within a sweep only the y-mark moves and J's
// alternatives cross the threshold once each, so the whole matrix costs
// O(|keys|·n) incremental path updates instead of O(|keys|²·n) full-tree
// evaluations.
func (p *Program) PrecedenceMatrix(keys []string) [][]float64 {
	m := make([][]float64, len(keys))
	for i := range keys {
		m[i] = make([]float64, len(keys))
	}
	// Rows of each program key id among the requested keys (a duplicated
	// key owns several rows and must fill all of them, like the legacy
	// per-cell loop did; unknown keys simply never match).
	rowsOf := make(map[int32][]int, len(keys))
	for row, key := range keys {
		if kid, ok := p.findKey(key); ok {
			rowsOf[kid] = append(rowsOf[kid], row)
		}
	}
	ar := p.acquireArena(0, 1)
	for col, key := range keys {
		j, ok := p.findKey(key)
		if !ok {
			// No alternatives of keyJ exist, so no x-marks: the sweep
			// degenerates to per-key presence probabilities, matching the
			// legacy evaluator's behavior for unknown keys.
			j = -1
		}
		p.precedenceSweep(ar, j, func(kid int32, coeff float64) {
			for _, row := range rowsOf[kid] {
				if row != col {
					m[row][col] += coeff
				}
			}
		}, func(kid int32) bool {
			_, ok := rowsOf[kid]
			return ok
		})
	}
	p.releaseArena(ar)
	return m
}

// precedenceSweep walks every alternative a (of any key except keyJ, whose
// program key id is j) in descending-score order with the arena capped at
// (0, 1): a carries the y-mark and every alternative of keyJ with a larger
// score carries an x-mark (which, at x-cap 0, truncates away exactly the
// worlds where keyJ outranks a).  The root's x^0 y^1 coefficient is then
// Pr(a present ∧ keyJ not ranked above a); emit receives it per
// alternative.  want filters the keys worth evaluating.  The arena is
// returned to its all-clear state so sweeps can share it.
func (p *Program) precedenceSweep(ar *arena, j int32, emit func(kid int32, coeff float64), want func(kid int32) bool) {
	var alts []int32
	if j >= 0 {
		alts = p.altsOfKey[j]
	}
	cross := 0
	var prev int32 = -1
	for _, a := range p.byScore {
		kid := p.keyID[a]
		if kid == j || !want(kid) {
			continue
		}
		s := p.leaves[a].Score
		if prev >= 0 {
			ar.setLeaf(prev, 0, 0)
		}
		for cross < len(alts) {
			b := alts[cross]
			if p.leaves[b].Score <= s {
				break
			}
			ar.setLeaf(b, 1, 0)
			cross++
		}
		ar.setLeaf(a, 0, 1)
		ar.flush()
		emit(kid, ar.rootCoeff(0, 1))
		prev = a
	}
	// Clear the marks so the next sweep starts from the all-zero state.
	if prev >= 0 {
		ar.setLeaf(prev, 0, 0)
	}
	for _, b := range alts[:cross] {
		ar.setLeaf(b, 0, 0)
	}
	ar.flush()
}

// CoClustering returns the co-clustering matrix of Section 6.2 for t; see
// Program.CoClustering.
func CoClustering(t *andxor.Tree) [][]float64 {
	return compiled(t).CoClustering()
}

// CoClustering returns w[i][j] = Pr(keys i and j fall in the same cluster
// of a random world), rows and columns in the tree's sorted key order:
// both present with equal labels, or both absent (the artificial cluster
// of missing tuples); w[i][i] = 1.  All pairs share one pooled arena at
// caps (2, 0).  With key i's label-a alternatives marked x, each key j
// with label-a alternatives marks them too and reads the x² root
// coefficient; with all of key i's alternatives marked, each key j marks
// all of its own and reads the x⁰ coefficient, the both-absent term.
// Each read costs a few leaf-path updates instead of a full tree pass.
func (p *Program) CoClustering() [][]float64 {
	n := len(p.keys)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		w[i][i] = 1
	}
	groups := p.labelGroups()
	ar := p.acquireArena(2, 0)
	for i := 0; i < n; i++ {
		for _, g := range groups[i] {
			markLeaves(ar, g.alts, 1)
			for j := i + 1; j < n; j++ {
				for _, gj := range groups[j] {
					if gj.label != g.label {
						continue
					}
					markLeaves(ar, gj.alts, 1)
					ar.flush()
					w[i][j] += ar.rootCoeff(2, 0)
					markLeaves(ar, gj.alts, 0)
				}
			}
			markLeaves(ar, g.alts, 0)
		}
		markLeaves(ar, p.altsOfKey[i], 1)
		for j := i + 1; j < n; j++ {
			markLeaves(ar, p.altsOfKey[j], 1)
			ar.flush()
			w[i][j] += ar.rootCoeff(0, 0)
			w[j][i] = w[i][j]
			markLeaves(ar, p.altsOfKey[j], 0)
		}
		markLeaves(ar, p.altsOfKey[i], 0)
	}
	ar.flush()
	p.releaseArena(ar)
	return w
}

// labelGroup is the alternatives of one key that carry one label.
type labelGroup struct {
	label string
	alts  []int32
}

// labelGroups returns, per key id, its alternatives grouped by label, the
// groups in the key's descending-score order of first appearance.
func (p *Program) labelGroups() [][]labelGroup {
	out := make([][]labelGroup, len(p.keys))
	for kid, alts := range p.altsOfKey {
		var gs []labelGroup
		for _, b := range alts {
			l := p.leaves[b].Label
			k := 0
			for k < len(gs) && gs[k].label != l {
				k++
			}
			if k == len(gs) {
				gs = append(gs, labelGroup{label: l})
			}
			gs[k].alts = append(gs[k].alts, b)
		}
		out[kid] = gs
	}
	return out
}

// markLeaves assigns x^xd to every listed leaf.
func markLeaves(ar *arena, leaves []int32, xd int32) {
	for _, b := range leaves {
		ar.setLeaf(b, xd, 0)
	}
}

// ExpectedJaccard returns E[d_J(W, pw)] for an arbitrary and/xor tree and
// candidate world W (Lemma 1); see Program.JaccardPrefixes.
func ExpectedJaccard(t *andxor.Tree, w *types.World) float64 {
	es := compiled(t).JaccardPrefixes(w.Leaves())
	return es[len(es)-1]
}

// JaccardPrefixes returns, for k = 0..len(prefix), E[d_J(W_k, pw)] with
// W_k the world of the first k alternatives of prefix, whose keys must be
// distinct (as a world's are).  It evaluates Lemma 1 with a dual-number
// x: W_k's leaves carry 1+x and every other leaf y, at caps (1, number of
// keys).  Writing I = |pw ∩ W_k| and J = |pw \ W_k| (at most one present
// alternative per key), the root's x⁰yʲ coefficient is Pr(J=j) and its
// x¹yʲ coefficient E[I; J=j], so
//
//	E[d_J] = Σⱼ ((|W_k|+j)·Pr(J=j) − E[I; J=j]) / (|W_k|+j),
//
// skipping |W_k|+j = 0 (d_J of two empty worlds is 0).  Growing the
// prefix flips one alternative's leaves from y to 1+x, so the whole
// sweep runs on one pooled arena at one leaf-path update per step.
func (p *Program) JaccardPrefixes(prefix []types.Leaf) []float64 {
	ar := p.acquireArena(1, len(p.keys))
	for i := range p.leaves {
		ar.setLeaf(int32(i), 0, 1)
	}
	out := make([]float64, len(prefix)+1)
	for k := 0; ; k++ {
		ar.flush()
		for j := 0; j <= ar.ycap; j++ {
			if den := float64(k + j); den != 0 {
				out[k] += (den*ar.rootCoeff(0, j) - ar.rootCoeff(1, j)) / den
			}
		}
		if k == len(prefix) {
			break
		}
		if kid, ok := p.findKey(prefix[k].Key); ok {
			for _, b := range p.altsOfKey[kid] {
				if p.leaves[b] == prefix[k] {
					ar.setLeaf(b, dualX, 0)
				}
			}
		}
	}
	p.releaseArena(ar)
	return out
}

// Coefficient evaluates one generating function of Theorem 1 on a pooled
// arena: leaf i, when present, contributes the monomial x^a y^b with
// (a, b) = assign(i, leaf), both non-negative, and the result is the
// root's coefficient of x^i y^j — the total probability of the worlds
// whose present leaves have x-degree i and y-degree j.
func (p *Program) Coefficient(assign func(i int, l types.Leaf) (xdeg, ydeg int), i, j int) float64 {
	ar := p.acquireArena(i, j)
	for li, l := range p.leaves {
		a, b := assign(li, l)
		if a < 0 || b < 0 {
			panic("genfunc: negative degree in a Coefficient assignment")
		}
		ar.setLeaf(int32(li), int32(a), int32(b))
	}
	ar.flush()
	c := ar.rootCoeff(i, j)
	p.releaseArena(ar)
	return c
}

// findKey returns the program key id of key.
func (p *Program) findKey(key string) (int32, bool) {
	kid, ok := p.keyIdx[key]
	return kid, ok
}

// sizeExtents returns the per-instruction polynomial lengths and offsets
// of the untruncated world-size evaluation.  They depend only on the tree
// shape (every leaf contributes exactly the monomial x), so they are
// computed once per Program and shared by all evaluations.
func (p *Program) sizeExtents() (lens, offs []int32) {
	p.sizeOnce.Do(func() {
		p.sizeLens, p.sizeOffs = p.countExtents(nil)
	})
	return p.sizeLens, p.sizeOffs
}

// countExtents returns the per-instruction polynomial lengths and offsets
// of an untruncated count evaluation in which leaf l contributes x when
// marked[l] (every leaf when marked is nil) and the constant 1 otherwise.
func (p *Program) countExtents(marked []bool) (lens, offs []int32) {
	n := len(p.insts)
	lens = make([]int32, n)
	offs = make([]int32, n+1)
	for i, in := range p.insts {
		var l int32
		switch in.op {
		case opLeaf:
			l = 1 // the constant 1
			if marked == nil || marked[in.leaf] {
				l = 2 // the monomial x
			}
		case opSum:
			l = lens[in.a]
			if in.b >= 0 && lens[in.b] > l {
				l = lens[in.b]
			}
			if l < 1 {
				l = 1
			}
		default: // opMul
			l = lens[in.a] + lens[in.b] - 1
		}
		lens[i] = l
		offs[i+1] = offs[i] + l
	}
	return lens, offs
}

// WorldSizeDist returns the distribution of possible-world sizes as a
// polynomial: Coeff(i) = Pr(|pw| = i).  This is Example 1 of the paper
// (assign the same variable x to every leaf), evaluated by the compiled
// kernel in one allocation-light bottom-up pass over a pooled buffer.
func WorldSizeDist(t *andxor.Tree) Poly {
	return compiled(t).WorldSizeDist()
}

// WorldSizeDist computes the possible-world size distribution on the
// compiled program: every leaf is assigned x and the untruncated root
// polynomial is evaluated bottom-up over a persistent per-Program buffer.
// Unlike the arena kernels this uses exact per-instruction polynomial
// sizes (degree bounds are known statically once every leaf is x), so
// large trees cost the same O(Σ product sizes) as the legacy evaluator —
// minus its per-node allocations and recursion.
//
// The buffer carries over across weight mutations: patchWeights records
// the changed instructions in sizeDirty, and the next call re-evaluates
// only those and their ancestor paths (ascending instruction id is a
// topological order, so children rewrite before parents).  The repair is
// bit-identical to a full pass because every instruction's row is a pure
// write-first function of its children's rows — recomputed or carried, a
// row holds exactly the floats the full pass writes.
func (p *Program) WorldSizeDist() Poly {
	lens, offs := p.sizeExtents()
	n := len(p.insts)
	p.sizeMu.Lock()
	switch {
	case p.sizeBuf == nil:
		p.sizeBuf = make([]float64, offs[n])
		for i := range p.insts {
			p.countRecompute(p.sizeBuf, lens, offs, int32(i))
		}
	case len(p.sizeDirty) > 0:
		dirty := make([]uint64, (n+63)/64)
		for _, id := range p.sizeDirty {
			for i := id; i >= 0; i = p.insts[i].parent {
				w, bit := i>>6, uint64(1)<<(i&63)
				if dirty[w]&bit != 0 {
					break // the rest of this root path is already marked
				}
				dirty[w] |= bit
			}
		}
		for w, word := range dirty {
			base := int32(w) << 6
			for word != 0 {
				p.countRecompute(p.sizeBuf, lens, offs, base+int32(bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
	}
	p.sizeDirty = p.sizeDirty[:0]
	root := p.sizeBuf[offs[n-1]:offs[n]]
	out := Poly(append([]float64(nil), root...)).Trim(0)
	p.sizeMu.Unlock()
	return out
}

// countRecompute rewrites instruction id's row of an untruncated count
// evaluation in buf (countExtents layout: a leaf row of length 2 is the
// monomial x, of length 1 the constant 1) as a write-first function of
// its children's rows: every cell of the row is stored, never accumulated
// into, so the row lands on the same bits whether the buffer is fresh
// (full pass) or carries a previous evaluation (dirty-path repair).
func (p *Program) countRecompute(buf []float64, lens, offs []int32, id int32) {
	in := &p.insts[id]
	dst := buf[offs[id] : offs[id]+lens[id]]
	switch in.op {
	case opLeaf:
		if len(dst) == 2 {
			dst[0], dst[1] = 0, 1
		} else {
			dst[0] = 1
		}
	case opSum:
		la := lens[in.a]
		a := buf[offs[in.a] : offs[in.a]+la]
		for k, v := range a {
			dst[k] = in.wa * v
		}
		clear(dst[la:])
		if in.b >= 0 {
			b := buf[offs[in.b] : offs[in.b]+lens[in.b]]
			for k, v := range b {
				dst[k] += in.wb * v
			}
		}
		dst[0] += in.c
	default:
		// Count rows are exact-width (dst is precisely
		// len(a)+len(b)-1), so the untruncated kernel applies; convFull
		// accumulates, so the row clears first.
		clear(dst)
		a := buf[offs[in.a] : offs[in.a]+lens[in.a]]
		b := buf[offs[in.b] : offs[in.b]+lens[in.b]]
		convFull(dst, a, b)
	}
}

// SubsetSizeDist returns Pr(|pw ∩ S| = i) for the leaf subset S selected by
// the predicate (Example 2 of the paper): leaves in S carry x and the
// others the constant 1, evaluated untruncated on the compiled program
// with exact per-instruction extents, as WorldSizeDist is.
func SubsetSizeDist(t *andxor.Tree, inSubset func(i int, l types.Leaf) bool) Poly {
	p := compiled(t)
	marked := make([]bool, len(p.leaves))
	for i, l := range p.leaves {
		marked[i] = inSubset(i, l)
	}
	lens, offs := p.countExtents(marked)
	buf := make([]float64, offs[len(p.insts)])
	for i := range p.insts {
		p.countRecompute(buf, lens, offs, int32(i))
	}
	root := len(p.insts) - 1
	return Poly(append([]float64(nil), buf[offs[root]:offs[root+1]]...)).Trim(0)
}
