package main

// Input generation.  Everything a run sends is a pure function of the
// workload name and the seed: the trees, the read universe, the write
// generator and the arrival schedule.  The servers receive only these
// generated bytes.

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"consensus/internal/andxor"
	"consensus/internal/engine"
	"consensus/internal/workload"
)

// shape fixes one workload's sizes, mix and arrival rate.
type shape struct {
	// Cluster runs the workload against a durable coordinator over three
	// workers instead of a single-process engine.
	Cluster bool `json:"cluster"`
	// Rate is the traced run's open-loop arrival rate in operations per
	// second, near a tenth of the closed-loop throughput on a 2-vCPU host.
	Rate float64 `json:"rate_ops"`
	// Trees of each kind: tuple-independent trees carrying the top-k,
	// rank, Jaccard, size, membership and aggregate ops; labeled BID trees
	// carrying clustering and aggregates; small trees whose worlds are
	// enumerable, carrying ranking consensus; and inline SPJ queries.
	Indep   int `json:"indep_trees"`
	IndepN  int `json:"indep_tuples"`
	Labeled int `json:"labeled_trees"`
	LabN    int `json:"labeled_tuples"`
	Small   int `json:"small_trees"`
	SPJ     int `json:"spj_queries"`
	K       int `json:"k"`
	// WriteShare is the share of operations that are writes.
	WriteShare float64 `json:"write_share"`
	// Condition allows evidence conditioning among the writes (otherwise
	// writes are set-prob mutations only).
	Condition bool `json:"condition"`
	// SideTree sends the writes to one extra tuple-independent tree that
	// no read touches, so writes are measured without disturbing the
	// cached read path.
	SideTree bool `json:"side_tree"`
}

// shapes are the benchmark's workloads.  Both read universes fit well
// inside engine.DefaultCacheEntries distinct (tree, intermediate) cache
// keys; the working set printed with every result is measured, not
// derived from these counts.
var shapes = map[string]shape{
	"warm-read": {
		Rate: 2000, Indep: 2, IndepN: 40, Labeled: 1, LabN: 14, Small: 1, SPJ: 1, K: 10,
		WriteShare: 0.05, Condition: true, SideTree: true,
	},
	"cluster-rw": {
		Cluster: true,
		Rate:    250, Indep: 2, IndepN: 40, Labeled: 1, LabN: 14, Small: 1, SPJ: 1, K: 10,
		WriteShare: 0.1,
	},
}

// item is one request the benchmark can send.
type item struct {
	tree  string // target tree; "" for inline spj-eval
	op    string // op label, e.g. "topk-mean/footrule"
	body  []byte // the exact request body
	write bool
	// src and pos say which stream drew the item, and when.
	src *stream
	pos int
}

// namedTree is a generated tree with its registration name.
type namedTree struct {
	name string
	tree *andxor.Tree
	json []byte
}

// writable describes a tuple-independent tree the write generator targets:
// its keys with their single alternative's score.
type writable struct {
	name   string
	keys   []string
	scores []float64
}

// inputs is everything one workload run sends.
type inputs struct {
	shape  shape
	trees  []namedTree
	reads  []item // the read universe, each picked uniformly
	wtrees []writable
}

// generate builds a workload's trees and request universe from seed.
func generate(name string, seed int64) (*inputs, error) {
	sh, ok := shapes[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{shape: sh}
	add := func(name string, t *andxor.Tree) error {
		b, err := json.Marshal(t)
		if err != nil {
			return fmt.Errorf("encoding tree %s: %w", name, err)
		}
		in.trees = append(in.trees, namedTree{name: name, tree: t, json: b})
		return nil
	}
	read := func(tree, op string, req engine.Request) error {
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		in.reads = append(in.reads, item{tree: tree, op: op, body: b})
		return nil
	}
	for i := 0; i < sh.Indep; i++ {
		name := fmt.Sprintf("ind%d", i)
		t := workload.Independent(rng, sh.IndepN)
		if err := add(name, t); err != nil {
			return nil, err
		}
		k := sh.K
		for _, r := range []struct {
			op  string
			req engine.Request
		}{
			{"topk-mean/symdiff", engine.Request{Op: engine.OpTopKMean, K: k, Metric: engine.MetricSymDiff}},
			{"topk-mean/footrule", engine.Request{Op: engine.OpTopKMean, K: k, Metric: engine.MetricFootrule}},
			{"rank-dist", engine.Request{Op: engine.OpRankDist, K: k}},
			{"topk-median", engine.Request{Op: engine.OpTopKMedian, K: k}},
			{"mean-world-jaccard", engine.Request{Op: engine.OpMeanWorldJaccard}},
			{"size-dist", engine.Request{Op: engine.OpSizeDist}},
			{"membership", engine.Request{Op: engine.OpMembership}},
			{"aggregate-mean", engine.Request{Op: engine.OpAggregateMean, K: k}},
		} {
			r.req.Tree = name
			if err := read(name, r.op, r.req); err != nil {
				return nil, err
			}
		}
		in.wtrees = append(in.wtrees, writableOf(name, t))
	}
	for i := 0; i < sh.Labeled; i++ {
		name := fmt.Sprintf("lab%d", i)
		if err := add(name, workload.Labeled(rng, sh.LabN, 2, 3)); err != nil {
			return nil, err
		}
		for _, r := range []struct {
			op  string
			req engine.Request
		}{
			{"clustering-mean", engine.Request{Op: engine.OpClusteringMean}},
			{"aggregate-mean", engine.Request{Op: engine.OpAggregateMean}},
		} {
			r.req.Tree = name
			if err := read(name, r.op, r.req); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < sh.Small; i++ {
		name := fmt.Sprintf("small%d", i)
		if err := add(name, workload.Independent(rng, 8)); err != nil {
			return nil, err
		}
		if err := read(name, "ranking-consensus", engine.Request{Tree: name, Op: engine.OpRankingConsensus}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sh.SPJ; i++ {
		if err := read("", "spj-eval", engine.Request{Op: engine.OpSPJEval, SPJ: spjQuery(rng)}); err != nil {
			return nil, err
		}
	}
	if sh.SideTree {
		t := workload.Independent(rng, sh.IndepN)
		if err := add("side", t); err != nil {
			return nil, err
		}
		in.wtrees = []writable{writableOf("side", t)}
	}
	return in, nil
}

func writableOf(name string, t *andxor.Tree) writable {
	w := writable{name: name}
	for _, l := range t.LeafAlternatives() {
		w.keys = append(w.keys, l.Key)
		w.scores = append(w.scores, l.Score)
	}
	return w
}

// spjQuery is the boolean query R(x), S(x, y) over small random tables.
func spjQuery(rng *rand.Rand) *engine.SPJRequest {
	vals := []string{"a", "b", "c", "d", "e", "f"}
	prob := func() float64 { return float64(5+rng.Intn(90)) / 100 }
	var r, s []engine.SPJRow
	for _, v := range vals {
		if rng.Intn(3) > 0 {
			r = append(r, engine.SPJRow{Vals: []string{v}, Prob: prob()})
		}
		for _, u := range vals[:3] {
			if rng.Intn(2) == 0 {
				s = append(s, engine.SPJRow{Vals: []string{v, u}, Prob: prob()})
			}
		}
	}
	return &engine.SPJRequest{
		Query: []engine.SPJSubgoal{
			{Relation: "R", Args: []engine.SPJTerm{{Var: "x"}}},
			{Relation: "S", Args: []engine.SPJTerm{{Var: "x"}, {Var: "y"}}},
		},
		Tables: map[string][]engine.SPJRow{"R": r, "S": s},
	}
}

// stream draws a workload's operations from its own RNG.  Every write it
// produces is valid in any order relative to every other, because
// concurrent requests may apply in any order: set-prob keeps a tuple's
// probability inside [0.05, 0.95]; evidence "absent" goes only to keys
// with index 0 mod 4 and "present" only to keys with index 1 mod 4, so
// no key ever receives evidence of probability zero.
type stream struct {
	in     *inputs
	seed   int64
	writes bool // every operation is a write
	rng    *rand.Rand
	drawn  int
}

func newStream(in *inputs, seed int64, writes bool) *stream {
	return &stream{in: in, seed: seed, writes: writes, rng: rand.New(rand.NewSource(seed))}
}

// next returns the next operation.
func (s *stream) next() item {
	var it item
	if s.rng.Float64() < s.in.shape.WriteShare || s.writes {
		it = s.write()
	} else {
		it = s.in.reads[s.rng.Intn(len(s.in.reads))]
	}
	it.src, it.pos = s, s.drawn
	s.drawn++
	return it
}

// redraw returns the items at the given positions of s, in ascending
// order, from a fresh copy of s.
func (s *stream) redraw(pos []int) []item {
	c := newStream(s.in, s.seed, s.writes)
	out := make([]item, len(pos))
	for i, p := range pos {
		for c.drawn < p {
			c.next()
		}
		out[i] = c.next()
	}
	return out
}

func (s *stream) write() item {
	w := s.in.wtrees[s.rng.Intn(len(s.in.wtrees))]
	req := engine.Request{Tree: w.name}
	prob := func() float64 { return float64(500+s.rng.Intn(9001)) / 10000 }
	setProb := func() engine.MutationRequest {
		i := s.rng.Intn(len(w.keys))
		return engine.MutationRequest{Kind: "set-prob", Key: w.keys[i], Score: w.scores[i], Prob: prob()}
	}
	op := "mutate"
	switch x := s.rng.Float64(); {
	case s.in.shape.Condition && x < 0.1:
		op = "condition"
		kind, rem := "absent", 0
		if s.rng.Intn(2) == 0 {
			kind, rem = "present", 1
		}
		i := 4*s.rng.Intn((len(w.keys)+3-rem)/4) + rem
		req.Op = engine.OpCondition
		req.Evidence = &engine.EvidenceRequest{Kind: kind, Key: w.keys[i]}
	case x < 0.75:
		req.Op = engine.OpMutate
		m := setProb()
		req.Mutation = &m
	default:
		op = "mutate/batch"
		req.Op = engine.OpMutate
		for j := 0; j < 4; j++ {
			req.Mutations = append(req.Mutations, setProb())
		}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a plain struct of strings and numbers always encodes
	}
	return item{tree: w.name, op: op, body: b, write: true}
}
