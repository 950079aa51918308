package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.1, 1}, {0.01, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	// 1000 samples leave exactly ten beyond the p99.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(1000 - i)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{120, 150}}, 70},
		{"disjoint children", []interval{{110, 120}, {150, 190}}, 50},
		// A hedged duplicate overlapping the first attempt is counted once.
		{"overlapping children", []interval{{110, 160}, {140, 180}}, 30},
		{"nested child", []interval{{110, 180}, {120, 130}}, 30},
		// Parts of a child outside the parent are not the parent's time.
		{"child sticking out", []interval{{50, 120}, {190, 260}}, 70},
		{"child outside", []interval{{10, 90}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", got)
	}
	// Connections per thousand requests: 3 new connections over 1500.
	if got := 1000 * ratio(3, 1500); got != 2 {
		t.Errorf("conns per kop = %v, want 2", got)
	}
}

// A stall that holds back sending charges its wait to every request it
// delayed, not only to the first: latency runs from the due time.
func TestDueLatencyUnderSimulatedStall(t *testing.T) {
	const ms = int64(time.Millisecond)
	var due, sent, done []int64
	for i := int64(0); i < 10; i++ {
		d := i * ms
		s := d
		if i >= 3 && i <= 5 {
			s = 8 * ms // the generator stalled from 3ms to 8ms
		}
		due = append(due, d)
		sent = append(sent, s)
		done = append(done, s+ms/10) // each request takes 100µs once sent
	}
	lat, late := dueLatencies(due, sent, done)
	wantLate := []float64{0, 0, 0, 5000, 4000, 3000, 0, 0, 0, 0}
	for i := range lat {
		if late[i] != wantLate[i] {
			t.Errorf("request %d: late %vµs, want %vµs", i, late[i], wantLate[i])
		}
		if want := wantLate[i] + 100; lat[i] != want {
			t.Errorf("request %d: latency %vµs, want %vµs", i, lat[i], want)
		}
	}
	// Timed from the send instead, every request would read 100µs and
	// the stall would vanish from the tail.
	if p90 := percentile(lat, 0.9); p90 != 4100 {
		t.Errorf("p90 = %vµs, want 4100µs", p90)
	}
}

// near reports whether got is within the histogram's 0.5% bucket width
// of want.
func near(got, want float64) bool { return math.Abs(got-want) <= 0.005*want }

func TestHistQuantileIsWithinABucketOfNearestRank(t *testing.T) {
	h := &hist{}
	var xs []float64
	for i := 1; i <= 1000; i++ {
		x := float64(i * i) // 1µs to 1s, spread over many buckets
		h.add(x)
		xs = append(xs, x)
	}
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 1} {
		if got, want := h.quantile(q), percentile(xs, q); !near(got, want) {
			t.Errorf("quantile(%v) = %v, nearest rank %v", q, got, want)
		}
	}
	// Samples out of range land in the end buckets.
	h = &hist{}
	h.add(0)
	h.add(1e12)
	if got := h.quantile(0.5); got > histMin*histGrowth {
		t.Errorf("a 0µs sample reads as %v", got)
	}
	if got := h.quantile(1); got < 1e8 {
		t.Errorf("a huge sample reads as %v", got)
	}
	if got := (&hist{}).quantile(0.5); got != 0 {
		t.Errorf("quantile of an empty histogram = %v, want 0", got)
	}
	// merged adds counts.
	a, b := &hist{}, &hist{}
	a.add(10)
	b.add(20)
	b.add(30)
	if m := merged([]*hist{a, nil, b}); m.n != 3 || !near(m.quantile(0.5), 20) {
		t.Errorf("merged: %d samples, p50 %v", m.n, m.quantile(0.5))
	}
}

func TestWindowedIgnoresAMinorityOfStalledWindows(t *testing.T) {
	var wins []*hist
	for win := 0; win < 5; win++ {
		w := &hist{}
		for i := 0; i < 100; i++ {
			v := float64(100 + i%10) // p50 of a window is 104
			if win == 2 {
				v *= 50 // a stalled window
			}
			w.add(v)
		}
		wins = append(wins, w)
	}
	wins = append(wins, nil, &hist{}) // empty windows are skipped
	if got := windowed(wins, 0.5); !near(got, 104) {
		t.Errorf("windowed p50 = %v, want 104", got)
	}
	if got := windowed(nil, 0.5); got != 0 {
		t.Errorf("windowed over no samples = %v, want 0", got)
	}
}

func TestPhaseGroupsSamplesByWindow(t *testing.T) {
	sec := int64(time.Second)
	p := &phase{}
	p.add(item{}, 10, 0)
	p.add(item{}, 30, sec/2)
	p.add(item{}, 20, 2*sec+1)
	p.add(item{}, 40, 2*sec)
	p.add(item{write: true}, 7, 3*sec)
	if got := len(p.readWin); got != 3 {
		t.Fatalf("%d read windows, want 3", got)
	}
	if n := merged(p.readWin).n; n != 4 || p.readWin[1] != nil {
		t.Errorf("%d read samples, window 1 %v; want 4 samples in windows 0 and 2", n, p.readWin[1])
	}
	// Window medians are 10 (of 10, 30) and 20 (of 20, 40); the empty
	// window 1 is skipped, and the median of the two is the lower.
	if got := p.readP50(); !near(got, 10) {
		t.Errorf("read p50 = %v, want 10", got)
	}
	if got := p.writeP50(); !near(got, 7) {
		t.Errorf("write p50 = %v, want 7", got)
	}
}

func TestThroughputIsTheMedianWindow(t *testing.T) {
	p := &phase{perWindow: []float64{200, 5000, 5200, 4900, 5100}}
	if got := p.throughput(); got != 5000/window.Seconds() {
		t.Errorf("throughput = %v, want %v", got, 5000/window.Seconds())
	}
}

// CPU time per operation is the median window's CPU time over the
// successful operations completed in it; windows without any are
// skipped.
func TestCPUPerOpIsTheMedianWindow(t *testing.T) {
	p := &phase{
		perWindow: []float64{1000, 1000, 0, 500, 1000},
		cpuWin:    []float64{150e3, 160e3, 90e3, 300e3, 140e3},
	}
	// Per window: 150, 160, skipped, 600 (a stalled window), 140.
	if got := p.cpuPerOp(); got != 150 {
		t.Errorf("cpu per op = %vµs, want 150µs", got)
	}
	if got := (&phase{}).cpuPerOp(); got != 0 {
		t.Errorf("cpu per op of an empty phase = %v, want 0", got)
	}
}

// The check draws acknowledged writes again from their positions in the
// streams that drew them; it must get the same bytes.
func TestRedrawGivesTheSameWrites(t *testing.T) {
	in, err := generate("warm-read", 7)
	if err != nil {
		t.Fatal(err)
	}
	var writes []acked
	var want [][]byte
	for _, st := range []*stream{newStream(in, 1, false), newStream(in, 2, true)} {
		for i := 0; i < 500; i++ {
			if it := st.next(); it.write && i%3 != 0 {
				writes = append(writes, acked{src: it.src, pos: it.pos})
				want = append(want, it.body)
			}
		}
	}
	// Acknowledgements arrive out of order.
	for i, j := 0, len(writes)-1; i < j; i, j = i+1, j-1 {
		writes[i], writes[j] = writes[j], writes[i]
		want[i], want[j] = want[j], want[i]
	}
	got := redraw(writes)
	for i := range want {
		if string(got[i].body) != string(want[i]) || !got[i].write {
			t.Fatalf("write %d redrawn as %s, sent %s", i, got[i].body, want[i])
		}
	}
	if len(want) < 50 {
		t.Errorf("only %d writes drawn", len(want))
	}
}

func TestCoordSplitAttributesWorkerTimeInAggregate(t *testing.T) {
	us := int64(time.Microsecond)
	spans := []*span{
		// Three coordinator reads of 100, 200 and 300µs: 600µs in all.
		{ID: 1, Layer: "front.service", Class: classRead, Start: 0, End: 100 * us},
		{ID: 2, Layer: "front.service", Class: classRead, Start: 0, End: 200 * us},
		{ID: 3, Layer: "front.service", Class: classRead, Start: 0, End: 300 * us},
		// Worker handlers spent 150µs on reads and 50µs on a snapshot.
		{ID: 4, Layer: "worker.handler", Class: classRead, Start: 0, End: 100 * us},
		{ID: 5, Layer: "worker.handler", Class: classRead, Start: 0, End: 50 * us},
		{ID: 6, Layer: "worker.handler", Class: classSnapshot, Start: 0, End: 50 * us},
	}
	st := indexSpans(spans)
	med, self, workers := st.coordSplit(classRead)
	// Workers took 150 of 600µs, a quarter, of the median 200µs span.
	if med != 200 || math.Abs(workers-50) > 1e-9 || math.Abs(self-150) > 1e-9 {
		t.Errorf("coordSplit = (%v, %v, %v), want (200, 150, 50)", med, self, workers)
	}
	if got := st.n("worker.handler/" + classRead); got != 2 {
		t.Errorf("worker read RPCs = %v, want 2", got)
	}
}

func TestEveryPerLayerMetricHasAUnit(t *testing.T) {
	in := &inputs{shape: shapes["cluster-rw"]}
	m := perLayer(indexSpans(nil), traced{cluster: true, load: &phase{}, closed: &phase{}, plain: &phase{}, kernel: kernelTimes(in)})
	for name := range m {
		if perLayerUnits[name] == "" {
			t.Errorf("per-layer metric %s has no unit", name)
		}
	}
	for name := range perLayerUnits {
		if _, ok := m[name]; !ok {
			t.Errorf("unit listed for %s, which perLayer does not report", name)
		}
	}
}

func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind  string
		list  []struct{ Name, Unit string }
		units map[string]string
	}{
		{"end_to_end", spec.EndToEnd, endToEndUnits},
		{"per_layer", spec.PerLayer, perLayerUnits},
	} {
		if len(c.list) != len(c.units) {
			t.Errorf("%s lists %d metrics, the benchmark reports %d", c.kind, len(c.list), len(c.units))
		}
		for _, m := range c.list {
			if c.units[m.Name] != m.Unit {
				t.Errorf("%s metric %s: unit %q in BENCHMARK.json, %q reported", c.kind, m.Name, m.Unit, c.units[m.Name])
			}
		}
	}
}
