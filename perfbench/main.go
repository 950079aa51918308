// Command perfbench is the serving benchmark: it boots the consensus
// server in process on loopback, drives one workload against it, checks
// the answers, and prints its metrics.
//
//	perfbench -workload warm-read|cluster-rw -seed N -seconds S -trace 0|1
//
// With -trace 0 it measures the end-to-end metrics: set-up time (the
// median of full set-ups repeated for S/5 seconds), then a closed-loop
// phase of two clients for S seconds giving read latency, CPU time per
// operation and resident memory, then the correctness check.  With -trace 1 it measures the per-layer metrics:
// an untraced closed-loop and open-loop phase, the open loop at the
// workload's fixed rate, then a traced open loop on a fresh system,
// direct kernel timings and the check of both systems.  It writes the
// spans and a per-layer report under -workdir.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  A failed correctness check
// exits with status 1 after printing it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits and perLayerUnits give every metric its unit;
// BENCHMARK.json lists the same names and units.
var endToEndUnits = map[string]string{
	"read_p50_us":   "us",
	"cpu_us_per_op": "us",
	"setup_s":       "s",
	"rss_mb":        "MB",
}

var perLayerUnits = map[string]string{
	"closed.write_p50_us":      "us",
	"closed.throughput_ops":    "1/s",
	"loadgen.late_p99_us":      "us",
	"open.read_p50_us":         "us",
	"open.read_p99_us":         "us",
	"open.write_p50_us":        "us",
	"open.write_p99_us":        "us",
	"front.transport_self_us":  "us",
	"front.conns_per_kop":      "conns/kop",
	"handler.self_us":          "us",
	"handler.req_bytes":        "B",
	"handler.resp_bytes":       "B",
	"engine.read_us":           "us",
	"engine.read_p99_us":       "us",
	"engine.write_us":          "us",
	"engine.hit_ratio":         "ratio",
	"engine.computes_per_read": "computes/read",
	"genfunc.compile_us":       "us",
	"genfunc.ranks_us":         "us",
	"genfunc.apply_us":         "us",
	"andxor.apply_us":          "us",
	"cluster.fromtree_us":      "us",
	"setconsensus.jaccard_us":  "us",
	"approx.ranks_us":          "us",
	"coord.read_us":            "us",
	"coord.read_self_us":       "us",
	"coord.write_us":           "us",
	"coord.write_self_us":      "us",
	"coord.rpcs_per_read":      "rpcs/read",
	"coord.rpcs_per_write":     "rpcs/write",
	"rpc.conns_per_krpc":       "conns/krpc",
	"wal.records_per_write":    "records/write",
	"wal.bytes_per_write":      "B/write",
	"worker.handler_self_us":   "us",
	"worker.engine_us":         "us",
	"trace.overhead_pct":       "%",
}

func main() {
	workload := flag.String("workload", "", "workload to run: warm-read or cluster-rw")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics in a traced run")
	workdir := flag.String("workdir", ".bench_build/perfbench", "directory for the WAL, spans and report")
	flag.Parse()
	if _, ok := shapes[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{workload: *workload, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), workdir: *workdir}
	var res *result
	var err error
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one invocation.
type bench struct {
	workload string
	seed     int64
	dur      time.Duration
	workdir  string
}

// setUp generates the inputs, boots the system, registers the trees over
// HTTP and warms it up.  The warm-up's acknowledged writes are returned
// for the correctness check.
func (b *bench) setUp(rec *recorder) (*inputs, *system, []acked, error) {
	in, err := generate(b.workload, b.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	sys, err := boot(in.shape, b.workdir, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	c := newClient(sys.front.url, 2, nil)
	defer c.close()
	if err := register(c, in); err != nil {
		sys.close()
		return nil, nil, nil, err
	}
	if err := warmUp(c, in, newStream(in, b.seed*1000, true)); err != nil {
		sys.close()
		return nil, nil, nil, err
	}
	return in, sys, c.acked, nil
}

// stream derives a phase's request stream from the seed.
func (b *bench) stream(in *inputs, phase int64) *stream {
	return newStream(in, b.seed*1000+phase, false)
}

// minSetUps is the fewest times the end-to-end run sets up.  It goes on
// setting up for a fifth of the measured time, so that the set-ups
// spread over seconds and a stall of the shared host moves few of them;
// setup_s is the median.
const minSetUps = 5

func (b *bench) endToEnd() (*result, error) {
	var setups []float64
	var in *inputs
	var sys *system
	var warm []acked
	first := time.Now()
	for i := 0; i < minSetUps || time.Since(first) < b.dur/5; i++ {
		if sys != nil {
			sys.close()
			in, sys, warm = nil, nil, nil
			freeMemory()
		}
		t0 := time.Now()
		var err error
		if in, sys, warm, err = b.setUp(nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sys.close()

	// The timed phase starts from a collected heap, so the garbage of the
	// set-ups does not land in its windows or in its resident memory.
	freeMemory()
	steal0, err := cpuSteal()
	if err != nil {
		return nil, err
	}
	c := newClient(sys.front.url, 2, nil)
	defer c.close()
	closed, err := closedLoop(c, []*stream{b.stream(in, 2), b.stream(in, 3)}, b.dur)
	if err != nil {
		return nil, err
	}
	steal1, err := cpuSteal()
	if err != nil {
		return nil, err
	}

	chk := check(c, in, append(warm, c.acked...))
	b.info(in, chk.workingSet)
	res := b.result([]*checkResult{chk}, []*client{c}, closed)
	res.Metrics = map[string]metric{}
	for name, v := range map[string]float64{
		"read_p50_us":   closed.readP50(),
		"cpu_us_per_op": closed.cpuPerOp(),
		"setup_s":       median(setups),
		"rss_mb":        median(closed.rss),
	} {
		res.Metrics[name] = metric{v, endToEndUnits[name]}
	}
	fmt.Fprintf(os.Stderr, "perfbench: closed loop completed %d operations; the host took %.1f%% of CPU time as steal\n",
		closed.attempted-closed.failed, steal1.sub(steal0))
	return res, nil
}

// freeMemory collects the heap and returns the freed pages to the OS.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// result folds load failures and check mismatches into the counts.
func (b *bench) result(chks []*checkResult, clients []*client, phases ...*phase) *result {
	res := &result{Correct: true}
	for _, c := range clients {
		if c.firstFailure != "" {
			fmt.Fprintln(os.Stderr, "perfbench: first failed operation:", c.firstFailure)
		}
	}
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	for _, chk := range chks {
		res.Correct = res.Correct && len(chk.mismatches) == 0
		res.Attempted += chk.compared
		res.Failed += len(chk.mismatches)
		for i, m := range chk.mismatches {
			if i == 5 {
				fmt.Fprintf(os.Stderr, "perfbench: ... %d more mismatches\n", len(chk.mismatches)-i)
				break
			}
			fmt.Fprintln(os.Stderr, "perfbench: MISMATCH:", m)
		}
	}
	return res
}

func (b *bench) traced() (*result, error) {
	// Untraced closed and open loops on a system of their own, checked
	// before it closes.
	in, sys, plainWarm, err := b.setUp(nil)
	if err != nil {
		return nil, err
	}
	closedC := newClient(sys.front.url, 2, nil)
	freeMemory()
	closed, err := closedLoop(closedC, []*stream{b.stream(in, 2), b.stream(in, 3)}, time.Duration(0.2*float64(b.dur)))
	closedC.close()
	if err != nil {
		sys.close()
		return nil, err
	}
	plainC := newClient(sys.front.url, 0, nil)
	runtime.GC()
	plain := openLoop(plainC, b.stream(in, 1), in.shape.Rate, time.Duration(0.4*float64(b.dur)))
	plainC.close()
	plainChk := check(plainC, in, append(append(plainWarm, closedC.acked...), plainC.acked...))
	sys.close()

	rec := newRecorder()
	in, sys, warm, err := b.setUp(rec)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	c := newClient(sys.front.url, 0, rec)
	defer c.close()
	t := traced{cluster: in.shape.Cluster, closed: closed, plain: plain}
	t.stats0 = sys.svc.Stats()
	seq0, bytes0 := sys.walState()
	front0, workers0 := sys.front.conns.Load(), sys.workerConns()
	runtime.GC()
	rec.on.Store(true)
	t.load = openLoop(c, b.stream(in, 1), in.shape.Rate, time.Duration(0.4*float64(b.dur)))
	rec.on.Store(false)
	t.stats1 = sys.svc.Stats()
	seq1, bytes1 := sys.walState()
	t.walSeq, t.walBytes = int64(seq1-seq0), bytes1-bytes0
	t.frontConns, t.workerConns = sys.front.conns.Load()-front0, sys.workerConns()-workers0
	spans := rec.take()
	t.kernel = kernelTimes(in)

	chkC := newClient(sys.front.url, 2, nil)
	defer chkC.close()
	chk := check(chkC, in, append(warm, c.acked...))
	b.info(in, chk.workingSet)
	st := indexSpans(spans)
	res := b.result([]*checkResult{plainChk, chk}, []*client{closedC, plainC, c}, closed, plain, t.load)
	res.Metrics = map[string]metric{}
	for name, v := range perLayer(st, t) {
		res.Metrics[name] = metric{v, perLayerUnits[name]}
	}
	rep := report(b.workload, b.seed, st, t)
	fmt.Fprint(os.Stderr, rep)
	stem := filepath.Join(b.workdir, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	if err := os.WriteFile(stem+"-report.txt", []byte(rep), 0o644); err != nil {
		return nil, err
	}
	if err := writeSpans(stem+"-spans.jsonl", spans); err != nil {
		return nil, err
	}
	return res, nil
}

// info prints the seed and the workload's sizes ahead of the result.
func (b *bench) info(in *inputs, workingSet int) {
	sizes := map[string]any{
		"workload": b.workload, "seed": b.seed, "shape": in.shape,
		"trees": len(in.trees), "read_universe": len(in.reads),
		"working_set_keys": workingSet,
	}
	out, _ := json.Marshal(sizes) // plain values always encode
	fmt.Println("info", string(out))
}

func writeSpans(path string, spans []*span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuTicks are the machine-wide total and steal CPU ticks of /proc/stat.
type cpuTicks struct{ total, steal float64 }

// cpuSteal reads the CPU ticks so far from /proc/stat.
func cpuSteal() (cpuTicks, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("/proc/stat: %w", err)
		}
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			t.steal = v
		}
	}
	return t, nil
}

// sub is the percentage of CPU time stolen between then and t.
func (t cpuTicks) sub(then cpuTicks) float64 {
	return 100 * ratio(t.steal-then.steal, t.total-then.total)
}

// residentMB is the process's resident set (VmRSS) in MiB.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/self/status")
}
