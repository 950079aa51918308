package engine

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"consensus/internal/workload"
)

func approxTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := New(opts)
	tr := workload.BID(rand.New(rand.NewSource(11)), 30, 2)
	if err := e.Register("db", tr); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestApproxRankDistWithinRadius(t *testing.T) {
	e := approxTestEngine(t, Options{})
	exact := e.Query(Request{Tree: "db", Op: OpRankDist, K: 5})
	if !exact.Ok() {
		t.Fatal(exact.Error)
	}
	est := e.Query(Request{Tree: "db", Op: OpRankDist, K: 5, Mode: ModeApprox, Epsilon: 0.05, Delta: 1e-9})
	if !est.Ok() {
		t.Fatal(est.Error)
	}
	if est.Approx == nil || est.Approx.Backend != "approx" || est.Approx.Samples == 0 {
		t.Fatalf("approx response missing sampling info: %+v", est.Approx)
	}
	if est.Approx.Radius <= 0 || est.Approx.Radius > 0.05 {
		t.Fatalf("radius %g outside (0, epsilon]", est.Approx.Radius)
	}
	for key, dist := range exact.Ranks {
		for i := range dist {
			if d := math.Abs(est.Ranks[key][i] - dist[i]); d > est.Approx.Radius {
				t.Errorf("Pr(r(%s)=%d): approx %g is %g from exact %g, radius %g",
					key, i+1, est.Ranks[key][i], d, dist[i], est.Approx.Radius)
			}
		}
		if d := math.Abs(est.TopKProb[key] - exact.TopKProb[key]); d > est.Approx.Radius {
			t.Errorf("Pr(r(%s)<=5): approx %g is %g from exact %g", key, est.TopKProb[key], d, exact.TopKProb[key])
		}
	}
}

func TestAutoModeSmallTreeStaysExact(t *testing.T) {
	e := approxTestEngine(t, Options{})
	resp := e.Query(Request{Tree: "db", Op: OpTopKMean, K: 5, Mode: ModeAuto})
	if !resp.Ok() {
		t.Fatal(resp.Error)
	}
	if resp.Approx == nil || resp.Approx.Backend != "exact" {
		t.Fatalf("auto mode on a 60-leaf tree must report the exact backend, got %+v", resp.Approx)
	}
	if resp.Approx.Samples != 0 || resp.Approx.Radius != 0 {
		t.Fatalf("exact-served auto response must not report sampling stats: %+v", resp.Approx)
	}
	// The answer must be byte-identical to a plain exact query.
	plain := e.Query(Request{Tree: "db", Op: OpTopKMean, K: 5})
	if strings.Join(resp.TopK, ",") != strings.Join(plain.TopK, ",") {
		t.Fatalf("auto(exact) answer %v differs from exact %v", resp.TopK, plain.TopK)
	}
	if plain.Approx != nil {
		t.Fatalf("plain exact response must not carry approx info, got %+v", plain.Approx)
	}
}

func TestAutoModeLargeTreePicksApprox(t *testing.T) {
	e := New(Options{})
	tr := workload.Independent(rand.New(rand.NewSource(12)), 2000)
	if err := e.Register("big", tr); err != nil {
		t.Fatal(err)
	}
	resp := e.Query(Request{Tree: "big", Op: OpTopKMean, K: 10, Mode: ModeAuto, Epsilon: 0.05})
	if !resp.Ok() {
		t.Fatal(resp.Error)
	}
	if resp.Approx == nil || resp.Approx.Backend != "approx" {
		t.Fatalf("auto mode on a 2000-leaf tree must sample, got %+v", resp.Approx)
	}
	if resp.Expected == nil || *resp.Expected < 0 || *resp.Expected > 1 {
		t.Fatalf("sampled expected distance out of range: %v", resp.Expected)
	}
	if len(resp.TopK) != 10 {
		t.Fatalf("want a 10-key answer, got %v", resp.TopK)
	}
}

func TestApproxCacheKeyedByBudget(t *testing.T) {
	e := approxTestEngine(t, Options{})
	req := Request{Tree: "db", Op: OpRankDist, K: 5, Mode: ModeApprox, Epsilon: 0.1, Delta: 0.01}

	mustOk(t, e.Query(Request{Tree: "db", Op: OpRankDist, K: 5})) // exact entry
	base := e.Stats().Computes

	first := mustOk(t, e.Query(req))
	if got := e.Stats().Computes; got != base+1 {
		t.Fatalf("first approx query: computes %d -> %d, want one new compute (no collision with exact)", base, got)
	}
	second := mustOk(t, e.Query(req))
	if got := e.Stats().Computes; got != base+1 {
		t.Fatalf("identical approx query recomputed (computes %d)", got)
	}
	for key := range first.Ranks {
		for i := range first.Ranks[key] {
			if first.Ranks[key][i] != second.Ranks[key][i] {
				t.Fatalf("cached approx answers differ for %s", key)
			}
		}
	}

	// A different budget is a different entry.
	loose := req
	loose.Epsilon = 0.2
	mustOk(t, e.Query(loose))
	if got := e.Stats().Computes; got != base+2 {
		t.Fatalf("different budget must compute separately (computes %d, want %d)", got, base+2)
	}
	// A different seed is a different entry too.
	seeded := req
	seeded.Seed = 42
	mustOk(t, e.Query(seeded))
	if got := e.Stats().Computes; got != base+3 {
		t.Fatalf("different seed must compute separately (computes %d, want %d)", got, base+3)
	}
}

func TestApproxKendallFillsExpected(t *testing.T) {
	e := approxTestEngine(t, Options{})
	exact := mustOk(t, e.Query(Request{Tree: "db", Op: OpTopKMean, K: 5, Metric: MetricKendall}))
	if exact.Expected != nil {
		t.Fatalf("exact kendall must leave Expected unset, got %v", *exact.Expected)
	}
	est := mustOk(t, e.Query(Request{Tree: "db", Op: OpTopKMean, K: 5, Metric: MetricKendall, Mode: ModeApprox}))
	if est.Expected == nil || *est.Expected < 0 || *est.Expected > 1 {
		t.Fatalf("approx kendall must estimate a normalized Expected, got %v", est.Expected)
	}
	if strings.Join(est.TopK, ",") != strings.Join(exact.TopK, ",") {
		t.Fatalf("approx kendall answer %v differs from the footrule optimum %v", est.TopK, exact.TopK)
	}
	if est.Approx == nil || est.Approx.Backend != "approx" || est.Approx.Samples == 0 {
		t.Fatalf("approx kendall response missing sampling info: %+v", est.Approx)
	}
}

func TestForcedApproxUnsupportedOps(t *testing.T) {
	e := approxTestEngine(t, Options{})
	for _, req := range []Request{
		{Tree: "db", Op: OpMeanWorld, Mode: ModeApprox},
		{Tree: "db", Op: OpTopKMedian, K: 3, Mode: ModeApprox},
		{Tree: "db", Op: OpTopKMean, K: 3, Metric: MetricFootrule, Mode: ModeApprox},
	} {
		if resp := e.Query(req); resp.Ok() {
			t.Errorf("op %s metric %q: forced approx must error", req.Op, req.Metric)
		}
	}
	// The same requests in auto mode fall back to exact.
	for _, req := range []Request{
		{Tree: "db", Op: OpMeanWorld, Mode: ModeAuto},
		{Tree: "db", Op: OpTopKMean, K: 3, Metric: MetricFootrule, Mode: ModeAuto},
	} {
		resp := e.Query(req)
		if !resp.Ok() {
			t.Errorf("op %s in auto mode: %s", req.Op, resp.Error)
		} else if resp.Approx == nil || resp.Approx.Backend != "exact" {
			t.Errorf("op %s in auto mode must report the exact backend, got %+v", req.Op, resp.Approx)
		}
	}
}

func TestEngineDefaultMode(t *testing.T) {
	e := New(Options{DefaultMode: ModeAuto, DefaultEpsilon: 0.1, DefaultDelta: 0.01})
	tr := workload.BID(rand.New(rand.NewSource(11)), 30, 2)
	if err := e.Register("db", tr); err != nil {
		t.Fatal(err)
	}
	resp := mustOk(t, e.Query(Request{Tree: "db", Op: OpRankDist, K: 5}))
	if resp.Approx == nil {
		t.Fatal("engine default mode auto must mark responses with the chosen backend")
	}
	// An explicit request mode overrides the engine default.
	forced := mustOk(t, e.Query(Request{Tree: "db", Op: OpRankDist, K: 5, Mode: ModeApprox}))
	if forced.Approx == nil || forced.Approx.Backend != "approx" {
		t.Fatalf("explicit mode must override the default, got %+v", forced.Approx)
	}
	if forced.Approx.Epsilon != 0.1 || forced.Approx.Delta != 0.01 {
		t.Fatalf("engine default budget not applied: %+v", forced.Approx)
	}
}

func TestApproxQueryCancellation(t *testing.T) {
	e := New(Options{})
	tr := workload.Independent(rand.New(rand.NewSource(13)), 1500)
	if err := e.Register("big", tr); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	resp := e.QueryContext(ctx, Request{
		Tree: "big", Op: OpRankDist, K: 10, Mode: ModeApprox, Epsilon: 0.004, Delta: 1e-6,
	})
	if resp.Ok() {
		t.Fatal("a cancelled sampling query must return an error response")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to stop the sampling backend", elapsed)
	}
	if !strings.Contains(resp.Error, "context") {
		t.Fatalf("error %q does not mention the context", resp.Error)
	}
}

// TestApproxCacheNotPoisonedByCancelledPeer pins the getSampled retry: a
// sampling computation captures the first requester's context, so when
// that requester cancels mid-run, a concurrent identical request with a
// healthy context must still get an answer (by retrying as the new
// computer), not inherit the stranger's cancellation error.
func TestApproxCacheNotPoisonedByCancelledPeer(t *testing.T) {
	e := New(Options{Workers: 4})
	tr := workload.Independent(rand.New(rand.NewSource(14)), 800)
	if err := e.Register("big", tr); err != nil {
		t.Fatal(err)
	}
	req := Request{Tree: "big", Op: OpRankDist, K: 10, Mode: ModeApprox, Epsilon: 0.01, Delta: 0.01}

	impatient := make(chan Response, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		impatient <- e.QueryContext(ctx, req)
	}()
	time.Sleep(20 * time.Millisecond) // let the impatient client start computing
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if resp := e.Query(req); !resp.Ok() {
		t.Fatalf("patient client inherited a peer's cancellation: %s", resp.Error)
	}
	<-impatient // the impatient client may have failed or finished; either is fine
}

func TestValidateBudgetFields(t *testing.T) {
	e := approxTestEngine(t, Options{})
	for _, req := range []Request{
		{Tree: "db", Op: OpSizeDist, Mode: "sometimes"},
		{Tree: "db", Op: OpSizeDist, Epsilon: -0.5},
		{Tree: "db", Op: OpSizeDist, Delta: 1.5},
		{Tree: "db", Op: OpSizeDist, Delta: -0.1},
		{Tree: "db", Op: OpRankDist, K: maxRequestK + 1},
	} {
		if resp := e.Query(req); resp.Ok() {
			t.Errorf("request %+v must be rejected", req)
		}
	}
}

// TestApproxAnswersIndependentOfRankWorkers pins seed-only determinism:
// the sampling backend's answer must not depend on how many goroutines
// run it, or a cluster of workers with different core counts would
// disagree with a single process.
func TestApproxAnswersIndependentOfRankWorkers(t *testing.T) {
	reqs := []Request{
		{Tree: "db", Op: OpRankDist, K: 4},
		{Tree: "db", Op: OpTopKMean, K: 4},
		{Tree: "db", Op: OpSizeDist},
		{Tree: "db", Op: OpMembership},
	}
	var bodies [2][]string
	for i, workers := range []int{1, 4} {
		e := approxTestEngine(t, Options{RankWorkers: workers})
		for _, req := range reqs {
			req.Mode, req.Epsilon, req.Delta, req.Seed = ModeApprox, 0.05, 0.01, 9
			resp := e.Query(req)
			if !resp.Ok() {
				t.Fatalf("%s with RankWorkers %d: %s", req.Op, workers, resp.Error)
			}
			body, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			bodies[i] = append(bodies[i], string(body))
		}
	}
	for j, req := range reqs {
		if bodies[0][j] != bodies[1][j] {
			t.Errorf("%s: RankWorkers 1 and 4 answer differently:\n%s\n%s", req.Op, bodies[0][j], bodies[1][j])
		}
	}
}
