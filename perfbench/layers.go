package main

// Per-layer numbers from the traced run's spans, and the report giving
// each layer's share of the traced read and write p50.

import (
	"fmt"
	"strings"

	"consensus/internal/engine"
)

// spanStats indexes span durations and self times by "layer/class",
// and keeps the body sizes the front handler saw.
type spanStats struct {
	dur, self           map[string][]float64
	reqBytes, respBytes []float64
}

func indexSpans(spans []*span) spanStats {
	children := map[uint64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.interval())
		}
	}
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range spans {
		k := s.Layer + "/" + s.Class
		st.dur[k] = append(st.dur[k], float64(s.End-s.Start)/1e3)
		st.self[k] = append(st.self[k], float64(selfTime(s.interval(), children[s.ID]))/1e3)
		if s.Layer == "front.handler" && (s.Class == classRead || s.Class == classWrite) {
			st.reqBytes = append(st.reqBytes, float64(s.ReqBytes))
			st.respBytes = append(st.respBytes, float64(s.RespBytes))
		}
	}
	return st
}

func (st spanStats) sum(k string) float64 {
	t := 0.0
	for _, x := range st.dur[k] {
		t += x
	}
	return t
}

func (st spanStats) n(k string) float64 { return float64(len(st.dur[k])) }

// coordSplit splits the coordinator's median span for class into self
// time and worker time.  Workers receive no span IDs, so their handler
// time is attributed in aggregate: the share it takes of all coordinator
// time in the class applies to the median span.
func (st spanStats) coordSplit(class string) (median_, self, workers float64) {
	k := "front.service/" + class
	work := st.sum("worker.handler/" + class)
	if class == classWrite {
		work += st.sum("worker.handler/snapshot")
	}
	median_ = median(st.dur[k])
	workers = median_ * ratio(work, st.sum(k))
	return median_, median_ - workers, workers
}

// traced is everything the traced run observed besides its spans.
type traced struct {
	cluster bool
	load    *phase // the traced open-loop phase
	// closed and plain are the untraced closed-loop and open-loop phases
	// run first, on a system of their own.
	closed, plain    *phase
	stats0, stats1   engine.Stats
	frontConns       int64
	workerConns      int64
	walSeq, walBytes int64
	kernel           map[string]float64
}

// perLayer computes every per-layer metric.  A layer a workload does
// not reach reports 0.
func perLayer(st spanStats, t traced) map[string]float64 {
	m := map[string]float64{}
	m["closed.write_p50_us"] = t.closed.writeP50()
	m["closed.throughput_ops"] = t.closed.throughput()
	m["open.read_p50_us"] = t.plain.readP50()
	m["open.read_p99_us"] = merged(t.plain.readWin).quantile(0.99)
	m["open.write_p50_us"] = t.plain.writeP50()
	m["open.write_p99_us"] = merged(t.plain.writeWin).quantile(0.99)
	m["loadgen.late_p99_us"] = percentile(t.plain.late, 0.99)
	m["front.transport_self_us"] = median(st.self["client/read"])
	m["front.conns_per_kop"] = 1000 * ratio(float64(t.frontConns), float64(t.load.attempted))
	m["handler.self_us"] = median(st.self["front.handler/read"])
	m["handler.req_bytes"] = mean(st.reqBytes)
	m["handler.resp_bytes"] = mean(st.respBytes)

	reads := st.n("front.service/read")
	writes := st.n("front.service/write")
	hits := float64(t.stats1.Hits - t.stats0.Hits)
	computes := float64(t.stats1.Computes - t.stats0.Computes)
	m["engine.hit_ratio"] = ratio(hits, hits+computes)
	m["engine.computes_per_read"] = ratio(computes, reads)

	for _, k := range []string{"engine.read_us", "engine.read_p99_us", "engine.write_us",
		"coord.read_us", "coord.read_self_us", "coord.write_us", "coord.write_self_us",
		"coord.rpcs_per_read", "coord.rpcs_per_write", "rpc.conns_per_krpc",
		"wal.records_per_write", "wal.bytes_per_write", "worker.handler_self_us", "worker.engine_us"} {
		m[k] = 0
	}
	if !t.cluster {
		m["engine.read_us"] = median(st.dur["front.service/read"])
		m["engine.read_p99_us"] = percentile(st.dur["front.service/read"], 0.99)
		m["engine.write_us"] = median(st.dur["front.service/write"])
	} else {
		m["coord.read_us"], m["coord.read_self_us"], _ = st.coordSplit(classRead)
		m["coord.write_us"], m["coord.write_self_us"], _ = st.coordSplit(classWrite)
		m["coord.rpcs_per_read"] = ratio(st.n("worker.handler/read"), reads)
		m["coord.rpcs_per_write"] = ratio(st.n("worker.handler/write")+st.n("worker.handler/snapshot"), writes)
		rpcs := st.n("worker.handler/read") + st.n("worker.handler/write") + st.n("worker.handler/snapshot") + st.n("worker.handler/other")
		m["rpc.conns_per_krpc"] = 1000 * ratio(float64(t.workerConns), rpcs)
		m["wal.records_per_write"] = ratio(float64(t.walSeq), writes)
		m["wal.bytes_per_write"] = ratio(float64(t.walBytes), writes)
		m["worker.handler_self_us"] = median(st.self["worker.handler/read"])
		m["worker.engine_us"] = median(st.dur["worker.service/read"])
	}
	plainP50 := t.plain.readP50()
	m["trace.overhead_pct"] = 100 * ratio(t.load.readP50()-plainP50, plainP50)
	for _, k := range kernelMetrics {
		m[k] = t.kernel[k]
	}
	return m
}

var kernelMetrics = []string{
	"genfunc.compile_us", "genfunc.ranks_us", "genfunc.apply_us", "andxor.apply_us",
	"cluster.fromtree_us", "setconsensus.jaccard_us", "approx.ranks_us",
}

// report renders each layer's share of the traced read and write p50.
func report(workload string, seed int64, st spanStats, t traced) string {
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench per-layer report: workload %s, seed %d\n", workload, seed)
	for _, class := range []string{classRead, classWrite} {
		n, p50 := merged(t.load.readWin).n, t.load.readP50()
		if class == classWrite {
			n, p50 = merged(t.load.writeWin).n, t.load.writeP50()
		}
		fmt.Fprintf(&b, "\n%s p50 %.1fus over %d requests (traced)\n", class, p50, n)
		if n == 0 {
			continue
		}
		type row struct {
			layer string
			us    float64
		}
		rows := []row{
			{"loadgen: send time minus due time (p50)", median(t.load.late)},
			{"client + net/http transport: self", median(st.self["client/"+class])},
			{"front handler (decode, validate, encode): self", median(st.self["front.handler/"+class])},
		}
		if !t.cluster {
			rows = append(rows, row{"engine Service: whole call", median(st.dur["front.service/"+class])})
		} else {
			_, self, workers := st.coordSplit(class)
			rows = append(rows,
				row{"coordinator Service: self (worker share attributed in aggregate)", self},
				row{"worker RPCs: handler time within the coordinator span", workers},
			)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.us
			fmt.Fprintf(&b, "  %-66s %10.1fus %6.1f%%\n", r.layer, r.us, 100*ratio(r.us, p50))
		}
		fmt.Fprintf(&b, "  %-66s %10.1fus %6.1f%%\n", "unattributed (medians do not add up exactly)", p50-sum, 100*ratio(p50-sum, p50))
	}
	return b.String()
}
