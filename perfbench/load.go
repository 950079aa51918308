package main

// Load generation.  The open-loop phase sends at a fixed rate whatever
// the system's state, timing each request from when it was due; the
// closed-loop phase runs at most two clients (nproc on the reference
// host), each sending its next request once the previous one answered.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// maxInFlight bounds the open-loop requests outstanding at once.  When
// it is reached the pacer waits, and the wait shows as lateness.
const maxInFlight = 512

// acked is one acknowledged write: where its stream drew it, so that the
// check can draw the same request again, the epoch the system stamped on
// it, and a digest of the response.  Keeping these instead of the bytes
// keeps the harness's own memory, which rss_mb also counts, small.
type acked struct {
	src   *stream
	pos   int
	epoch uint64
	resp  uint64
}

// digest is the FNV-1a hash of a response body.
func digest(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body) // never fails
	return h.Sum64()
}

// client sends generated requests to the front.
type client struct {
	hc  *http.Client
	url string

	mu    sync.Mutex
	acked []acked
	// firstFailure describes the first operation that failed.
	firstFailure string
}

// newClient builds a client over its own transport.  conns bounds the
// connections it opens (0 = unbounded); rec, when non-nil, traces every
// exchange.
func newClient(url string, conns int, rec *recorder) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: maxInFlight, MaxConnsPerHost: conns, IdleConnTimeout: time.Minute}
	if conns > 0 {
		tr.MaxIdleConnsPerHost = conns
	}
	var rt http.RoundTripper = tr
	if rec != nil {
		rt = &tracedTransport{rec: rec, inner: tr}
	}
	return &client{hc: &http.Client{Transport: rt}, url: url}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send sends body to path and returns the response body, failing on a
// transport error or a non-2xx status.
func (c *client) send(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// errorField marks a Response with Error set, overloaded sheds included;
// a successful answer never carries the field (it is omitempty).
var errorField = []byte(`"error":`)

// do sends one operation and reports whether it succeeded.  An
// acknowledged write is kept, with its epoch, for the correctness check.
func (c *client) do(ctx context.Context, it item) bool {
	class := classRead
	if it.write {
		class = classWrite
	}
	body, err := c.send(context.WithValue(ctx, classKey{}, class), http.MethodPost, "/v1/query", it.body)
	var r struct {
		Epoch uint64 `json:"epoch"`
	}
	switch {
	case err != nil:
	case bytes.Contains(body, errorField):
		err = fmt.Errorf("%s", body)
	case it.write && (json.Unmarshal(body, &r) != nil || r.Epoch == 0):
		err = fmt.Errorf("write acknowledged without an epoch: %s", body)
	}
	if err == nil && !it.write {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		if c.firstFailure == "" {
			c.firstFailure = fmt.Sprintf("%s on %q: %v", it.op, it.tree, err)
		}
		return false
	}
	c.acked = append(c.acked, acked{src: it.src, pos: it.pos, epoch: r.Epoch, resp: digest(body)})
	return true
}

// phase is what one load phase measured.
type phase struct {
	// Latency in µs of each successful read and write, counted in the
	// window it falls in: by due time in the open loop, by completion
	// time in the closed loop.
	readWin, writeWin []*hist
	// Open loop: every request's send time minus its due time, µs.
	late              []float64
	attempted, failed int
	// Closed loop: successful operations in each window, the CPU time
	// the whole process took in each window (µs), and its resident
	// memory at the end of each window (MiB).
	perWindow []float64
	cpuWin    []float64
	rss       []float64
}

// window is the interval a run's figures are taken over.  A run reports
// the median window, so a stall of the shared host that slows one
// window does not move the figure.
const window = time.Second

// readP50 and writeP50 are the median windows' median latencies, µs.
func (p *phase) readP50() float64  { return windowed(p.readWin, 0.5) }
func (p *phase) writeP50() float64 { return windowed(p.writeWin, 0.5) }

// throughput is the median window's successful operations per second.
func (p *phase) throughput() float64 {
	return median(p.perWindow) / window.Seconds()
}

// cpuPerOp is the median window's process CPU time per successful
// operation, µs.
func (p *phase) cpuPerOp() float64 {
	var per []float64
	for w, n := range p.perWindow {
		if n > 0 && w < len(p.cpuWin) {
			per = append(per, p.cpuWin[w]/n)
		}
	}
	return median(per)
}

// add records one successful operation's latency at time at (ns).
func (p *phase) add(it item, latUs float64, at int64) {
	wins := &p.readWin
	if it.write {
		wins = &p.writeWin
	}
	w := int(at / int64(window))
	for len(*wins) <= w {
		*wins = append(*wins, nil)
	}
	if (*wins)[w] == nil {
		(*wins)[w] = &hist{}
	}
	(*wins)[w].add(latUs)
}

// openLoop sends rate·dur operations from st at fixed spacing.
func openLoop(c *client, st *stream, rate float64, dur time.Duration) *phase {
	n := int(rate * dur.Seconds())
	items := make([]item, n)
	for i := range items {
		items[i] = st.next()
	}
	due := make([]int64, n)
	sent := make([]int64, n)
	done := make([]int64, n)
	ok := make([]bool, n)
	spacing := float64(time.Second) / rate
	base := time.Now()
	now := func() int64 { return int64(time.Since(base)) }
	for i := range due {
		due[i] = int64(float64(i) * spacing)
	}
	// Each request's goroutine starts up to lead ahead of its due time
	// and sleeps the rest itself, so no hand-off to another thread sits
	// between the due time and the send.
	const lead = 2 * time.Millisecond
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	for i := range items {
		if d := due[i] - int64(lead) - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if d := due[i] - now(); d > 0 {
				sleepPrecise(d)
			}
			sent[i] = now()
			ok[i] = c.do(context.Background(), items[i])
			done[i] = now()
			<-sem
		}(i)
	}
	wg.Wait()
	p := &phase{attempted: n}
	lat, late := dueLatencies(due, sent, done)
	p.late = late
	for i := range items {
		if ok[i] {
			p.add(items[i], lat[i], due[i])
		} else {
			p.failed++
		}
	}
	return p
}

// closedLoop runs one client per stream, each sending its next
// operation when the previous one answered, for dur.  Operations that
// finish after dur count as attempted but are not timed.
func closedLoop(c *client, streams []*stream, dur time.Duration) (*phase, error) {
	windows := max(int(dur/window), 1)
	p := &phase{perWindow: make([]float64, windows)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0, err := processCPU()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sampled := make(chan error, 1)
	go func() {
		for w := 1; w <= windows; w++ {
			time.Sleep(time.Until(start.Add(time.Duration(w) * window)))
			cpu, err := processCPU()
			if err != nil {
				sampled <- err
				return
			}
			mb, err := residentMB()
			if err != nil {
				sampled <- err
				return
			}
			p.cpuWin = append(p.cpuWin, float64((cpu - cpu0).Microseconds()))
			p.rss = append(p.rss, mb)
			cpu0 = cpu
		}
		sampled <- nil
	}()
	for _, st := range streams {
		wg.Add(1)
		go func(st *stream) {
			defer wg.Done()
			for {
				t0 := time.Since(start)
				if int(t0/window) >= windows {
					break
				}
				it := st.next()
				ok := c.do(context.Background(), it)
				t1 := time.Since(start)
				mu.Lock()
				p.attempted++
				switch w := int(t1 / window); {
				case !ok:
					p.failed++
				case w < windows:
					p.perWindow[w]++
					p.add(it, float64(t1-t0)/1e3, int64(t1))
				}
				mu.Unlock()
			}
		}(st)
	}
	wg.Wait()
	return p, <-sampled
}

// processCPU is the user and system CPU time the process has taken.
// The kernel leaves out the time the host stole from its vCPUs.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// register uploads every generated tree through the front, as a client
// of `consensusctl serve` or `coordinator` would.
func register(c *client, in *inputs) error {
	for _, t := range in.trees {
		if _, err := c.send(context.Background(), http.MethodPut, "/v1/trees/"+t.name, t.json); err != nil {
			return fmt.Errorf("registering %s: %w", t.name, err)
		}
	}
	return nil
}

// forEach runs fn over items on two goroutines.
func forEach(items []item, fn func(int, item)) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(items); i += 2 {
				fn(i, items[i])
			}
		}(w)
	}
	wg.Wait()
}

// minWarmUp is the fewest reads a warm-up sends, and warmUpWrites the
// writes it sends per written tree first.
const (
	minWarmUp    = 2000
	warmUpWrites = 20
)

// warmUp brings the system to the state a steady stream leaves it in
// before timing starts.  Writes, drawn from st, go first, so timing
// starts on trees that have already taken writes: evidence pins tuples
// to probability 0 or 1, which changes what later reads of the tree
// cost.  Then reads cycle through the read universe, at least once and
// for at least minWarmUp requests, filling caches, connection pools and
// the heap.  Cluster reads rotate over two replicas, which a few
// thousand requests cover.
func warmUp(c *client, in *inputs, st *stream) error {
	writes := make([]item, warmUpWrites*len(in.wtrees))
	for i := range writes {
		writes[i] = st.next()
	}
	reads := make([]item, max(len(in.reads), minWarmUp))
	for i := range reads {
		reads[i] = in.reads[i%len(in.reads)]
	}
	for _, seq := range [][]item{writes, reads} {
		forEach(seq, func(_ int, it item) { c.do(context.Background(), it) })
	}
	if c.firstFailure != "" {
		return fmt.Errorf("warm-up: %s", c.firstFailure)
	}
	return nil
}
