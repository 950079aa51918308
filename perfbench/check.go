package main

// The correctness check, run after the load.  Each tree's acknowledged
// writes are replayed, in the order of the epochs the system stamped on
// them, into a fresh single-process engine fed the same generated trees;
// every write's response and then every read of the universe must come
// back byte-identical from the system and from that reference.  For the
// cluster workload this is the same oracle cmd/clustersmoke applies.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"

	"consensus/internal/engine"
)

// refCacheEntries sizes the reference engine's cache to hold the whole
// read universe, so its entry count after the check is the working set.
// Answers must not depend on what a cache holds, so this does not weaken
// the comparison.
const refCacheEntries = 1 << 16

// checkResult is what the check found.
type checkResult struct {
	compared   int
	mismatches []string
	// workingSet is the number of distinct (tree, intermediate) cache
	// keys the read universe touches in the final state.
	workingSet int
}

func check(c *client, in *inputs, writes []acked) *checkResult {
	ref := engine.New(engine.Options{CacheEntries: refCacheEntries})
	h := engine.NewHandler(ref)
	serve := func(method, path string, body []byte) []byte {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rr.Body.Bytes()
	}
	for _, t := range in.trees {
		serve(http.MethodPut, "/v1/trees/"+t.name, t.json)
	}
	res := &checkResult{}
	mismatch := func(format string, args ...any) {
		res.mismatches = append(res.mismatches, fmt.Sprintf(format, args...))
	}

	reqs := redraw(writes)
	order := make([]int, len(writes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if reqs[a].tree != reqs[b].tree {
			return reqs[a].tree < reqs[b].tree
		}
		return writes[a].epoch < writes[b].epoch
	})
	next := map[string]uint64{}
	for _, i := range order {
		w, tree := writes[i], reqs[i].tree
		next[tree]++
		if w.epoch != next[tree] {
			mismatch("tree %s: acknowledged epoch %d where %d was due", tree, w.epoch, next[tree])
			next[tree] = w.epoch
		}
		res.compared++
		if got := serve(http.MethodPost, "/v1/query", reqs[i].body); digest(got) != w.resp {
			mismatch("tree %s epoch %d: write %s answered other bytes than the reference's %s", tree, w.epoch, reqs[i].body, got)
		}
	}

	all := in.reads
	got := make([][]byte, len(all))
	errs := make([]error, len(all))
	forEach(all, func(i int, it item) {
		got[i], errs[i] = c.send(context.Background(), http.MethodPost, "/v1/query", it.body)
	})
	var mu sync.Mutex
	forEach(all, func(i int, it item) {
		want := serve(http.MethodPost, "/v1/query", it.body)
		mu.Lock()
		defer mu.Unlock()
		res.compared++
		switch {
		case errs[i] != nil:
			mismatch("%s on %q: %v", it.op, it.tree, errs[i])
		case !bytes.Equal(got[i], want):
			mismatch("%s on %q: system answered %s, reference %s", it.op, it.tree, got[i], want)
		}
	})
	res.workingSet = ref.Stats().CacheEntries
	return res
}

// redraw draws each acknowledged write's request again, from fresh
// copies of the streams that drew them.
func redraw(writes []acked) []item {
	bySrc := map[*stream][]int{}
	for i, w := range writes {
		bySrc[w.src] = append(bySrc[w.src], i)
	}
	out := make([]item, len(writes))
	for src, idx := range bySrc {
		sort.Slice(idx, func(a, b int) bool { return writes[idx[a]].pos < writes[idx[b]].pos })
		pos := make([]int, len(idx))
		for j, i := range idx {
			pos[j] = writes[i].pos
		}
		for j, it := range src.redraw(pos) {
			out[idx[j]] = it
		}
	}
	return out
}
