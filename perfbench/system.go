package main

// The system under test, booted in process on loopback exactly as
// `consensusctl serve`, `consensusctl worker` and `consensusctl
// coordinator -data-dir` boot it: default engine and coordinator
// options, no injected HTTP client, workers behind the fencing guard.

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"consensus/internal/distrib"
	"consensus/internal/engine"
)

// server is one loopback HTTP server counting the connections it accepts.
type server struct {
	url   string
	srv   *http.Server
	done  chan struct{}
	conns atomic.Int64
}

func startServer(h http.Handler) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + l.Addr().String(), done: make(chan struct{})}
	s.srv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				s.conns.Add(1)
			}
		},
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(l) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// system is a booted front plus, for cluster workloads, its workers.
type system struct {
	front   *server
	svc     engine.Service // the Service behind the front, for Stats
	coord   *distrib.Coordinator
	workers []*server
	dataDir string
}

// boot starts the system for a workload.  With rec non-nil every
// engine.NewHandler and the Service behind it are wrapped in spans.
func boot(sh shape, workdir string, rec *recorder) (*system, error) {
	sys := &system{}
	if !sh.Cluster {
		eng := engine.New(engine.Options{})
		sys.svc = eng
		front, err := startServer(engine.FencedHandler(serviceHandler(eng, rec, "front"), &engine.Fence{}))
		if err != nil {
			return nil, err
		}
		sys.front = front
		return sys, nil
	}
	var addrs []string
	for i := 0; i < 3; i++ {
		eng := engine.New(engine.Options{})
		w, err := startServer(engine.FencedHandler(serviceHandler(eng, rec, "worker"), &engine.Fence{}))
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.workers = append(sys.workers, w)
		addrs = append(addrs, w.url)
	}
	dir, err := os.MkdirTemp(workdir, "wal-")
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.dataDir = dir
	coord, err := distrib.New(distrib.Options{Workers: addrs, DataDir: dir})
	if err != nil {
		sys.close()
		return nil, fmt.Errorf("starting coordinator: %w", err)
	}
	sys.coord, sys.svc = coord, coord
	h := coord.Handler()
	if rec != nil {
		mux := http.NewServeMux()
		mux.Handle("/v1/", serviceHandler(coord, rec, "front"))
		mux.Handle("/", h)
		h = mux
	}
	front, err := startServer(h)
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.front = front
	return sys, nil
}

// serviceHandler is engine.NewHandler over svc, with both layers traced
// when rec is non-nil.
func serviceHandler(svc engine.Service, rec *recorder, role string) http.Handler {
	if rec == nil {
		return engine.NewHandler(svc)
	}
	return tracedHandler(rec, role+".handler",
		engine.NewHandler(&tracedService{Service: svc, rec: rec, layer: role + ".service"}))
}

// close stops every server and the coordinator and removes the data dir.
func (s *system) close() {
	if s.front != nil {
		s.front.close()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for _, w := range s.workers {
		w.close()
	}
	if s.dataDir != "" {
		_ = os.RemoveAll(s.dataDir)
	}
}

// walState reports the coordinator's next WAL sequence number and the
// bytes in its data dir; zeros without a coordinator.
func (s *system) walState() (seq uint64, bytes int64) {
	if s.coord == nil {
		return 0, 0
	}
	if w := s.coord.Status().WAL; w != nil {
		seq = w.NextSeq
	}
	_ = filepath.Walk(s.dataDir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			bytes += fi.Size()
		}
		return nil
	})
	return seq, bytes
}

// workerConns is the number of connections the workers accepted.
func (s *system) workerConns() int64 {
	n := int64(0)
	for _, w := range s.workers {
		n += w.conns.Load()
	}
	return n
}
