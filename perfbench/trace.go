package main

// Tracing for the traced run.  The program itself has no tracing, so the
// spans are recorded here, around the public entry points of each layer:
//
//   - the client's http.RoundTripper ("client"), which stamps its span ID
//     on the request in spanHeader;
//   - an http.Handler around each engine.NewHandler ("front.handler",
//     "worker.handler"), whose span takes the client's span as parent and
//     travels to the Service wrapper through r.Context();
//   - an engine.Service around *engine.Engine or *distrib.Coordinator
//     ("front.service", "worker.service").
//
// The coordinator does not forward span IDs to its workers, so worker
// spans have no parent and are attributed to coordinator spans only in
// aggregate.  Spans are kept in memory and written out when the run ends.

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"consensus/internal/engine"
)

const spanHeader = "X-Perfbench-Span"

// Span classes: what a span's request did.
const (
	classRead     = "read"
	classWrite    = "write"
	classSnapshot = "snapshot" // GET /v1/trees/{name}: the coordinator's post-write refresh
	classOther    = "other"    // probes, registration, stats
)

// span is one timed layer crossing.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Class  string `json:"class"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// ReqBytes and RespBytes are the body sizes a handler span saw.
	ReqBytes  int64 `json:"req_bytes,omitempty"`
	RespBytes int64 `json:"resp_bytes,omitempty"`
}

func (s *span) interval() interval { return interval{s.Start, s.End} }

// recorder collects spans while on.
type recorder struct {
	base   time.Time
	on     atomic.Bool
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []*span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span, or returns nil while recording is off.
func (r *recorder) begin(layer string, parent uint64) *span {
	if r == nil || !r.on.Load() {
		return nil
	}
	return &span{ID: r.nextID.Add(1), Parent: parent, Layer: layer, Class: classOther, Start: r.now()}
}

// end closes s and keeps it.
func (r *recorder) end(s *span) {
	if s == nil {
		return
	}
	s.End = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (r *recorder) take() []*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// tracedTransport is the client-side RoundTripper: its span covers the
// whole exchange, up to the close of the fully read response body.
type tracedTransport struct {
	rec   *recorder
	inner http.RoundTripper
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := t.rec.begin("client", 0)
	if s == nil {
		return t.inner.RoundTrip(req)
	}
	if c, ok := req.Context().Value(classKey{}).(string); ok {
		s.Class = c
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.rec.end(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

// classKey carries a request's class from the client into its span.
type classKey struct{}

type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    *span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.rec.end(b.s) })
	return err
}

// spanKey carries the handler span to the Service wrapper.
type spanKey struct{}

// tracedHandler wraps an engine.NewHandler.
func tracedHandler(rec *recorder, layer string, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		s := rec.begin(layer, parent)
		if s == nil {
			inner.ServeHTTP(w, r)
			return
		}
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/trees/") {
			s.Class = classSnapshot
		}
		body := &countingReader{ReadCloser: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		inner.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), spanKey{}, s)))
		s.ReqBytes, s.RespBytes = body.n, cw.n
		rec.end(s)
	})
}

type countingReader struct {
	io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// tracedService wraps the Service behind a handler.  Its span is the
// handler span's child, found through the request context; it also
// classifies the handler span by the request's op.
type tracedService struct {
	engine.Service
	rec   *recorder
	layer string
}

func classOf(op engine.Op) string {
	if op == engine.OpMutate || op == engine.OpCondition {
		return classWrite
	}
	return classRead
}

func (t *tracedService) QueryContext(ctx context.Context, req engine.Request) engine.Response {
	hs, _ := ctx.Value(spanKey{}).(*span)
	var parent uint64
	if hs != nil {
		parent = hs.ID
		hs.Class = classOf(req.Op)
	}
	s := t.rec.begin(t.layer, parent)
	if s != nil {
		s.Class = classOf(req.Op)
	}
	resp := t.Service.QueryContext(ctx, req)
	t.rec.end(s)
	return resp
}
