package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tapas"
	"tapas/internal/strategy"
	"tapas/internal/trace"
	"tapas/service"
	"tapas/service/dispatch"
	"tapas/store"
)

// request is one (model, GPUs) search of the shared request list.
type request struct {
	Model string
	GPUs  int
}

func (r request) String() string { return fmt.Sprintf("%s@%d", r.Model, r.GPUs) }

// requests is the list every workload replays, in an order drawn from
// the seed. README.md says why each entry is here.
var requests = []request{
	{"t5-770M", 8},
	{"moe-1.3B", 8},
	{"bert-large", 16},
	{"resnet152-100K", 8},
	{"t5-770M", 32},
}

// knownFaults names the checks that fail on every run because of a
// fault in the program, keyed "request/check". Such failures are
// counted in "failed" but leave "correct" true.
var knownFaults = map[string]string{
	"t5-770M@32/memory_fit": "the memory-repair loop in internal/strategy/search.go returns a plan needing 33.8 GiB on 32 GiB V100s while the ffn-only planner's plan needs 18.3 GiB",
}

// workload is one server configuration replaying the request list.
type workload struct {
	name string
	// cache is the engine result-cache size (0 disables it).
	cache int
	// store attaches a plan store reopened from a corpus written by an
	// untimed cold pass.
	store bool
	// scatter wires a dispatch.Coordinator shipping tasks to one
	// in-process executor.
	scatter bool
	// clientsPerCore runs one closed-loop client per core instead of one.
	clientsPerCore bool
}

var workloads = map[string]workload{
	"cold":    {name: "cold"},
	"warm":    {name: "warm", cache: tapas.DefaultCacheSize, clientsPerCore: true},
	"restore": {name: "restore", store: true},
	"scatter": {name: "scatter", scatter: true},
}

var workloadOrder = []string{"cold", "warm", "restore", "scatter"}

// server is one service.New + service.NewHandler behind a loopback HTTP
// listener.
type server struct {
	svc *service.Service
	srv *http.Server
	url string
	// meter times the executor's /v1/tasks requests; nil on the front
	// server.
	meter *meter
}

// meter times the requests of one route and counts their wire bytes.
type meter struct {
	path    string
	nanos   atomic.Int64
	wireIn  atomic.Int64
	wireOut atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (m *meter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != m.path {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		m.nanos.Add(int64(time.Since(t0)))
		m.wireIn.Add(max(r.ContentLength, 0))
		m.wireOut.Add(cw.n)
	})
}

func startServer(cfg service.Config, m *meter) (*server, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown(context.Background())
		return nil, err
	}
	h := service.NewHandler(svc)
	if m != nil {
		h = m.wrap(h)
	}
	s := &server{svc: svc, srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), meter: m}
	go s.srv.Serve(ln)
	return s, nil
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	s.svc.Shutdown(ctx)
}

// shipMeter wraps the coordinator's TaskRunner to time and count the
// batches a search hands to the dispatch layer.
type shipMeter struct {
	batches atomic.Int64
	nanos   atomic.Int64
}

type timedRunner struct {
	strategy.TaskRunner
	m *shipMeter
}

func (r timedRunner) RunTasks(ctx context.Context, b strategy.TaskBatch) ([]strategy.TaskResult, error) {
	t0 := time.Now()
	res, err := r.TaskRunner.RunTasks(ctx, b)
	r.m.nanos.Add(int64(time.Since(t0)))
	r.m.batches.Add(1)
	return res, err
}

// stack is one workload's serving stack: the front server, plus the
// plan store (restore) or the coordinator and its executor (scatter).
type stack struct {
	w      workload
	front  *server
	rec    *trace.Recorder
	st     *store.Store
	exec   *server
	coord  *dispatch.Coordinator
	ship   *shipMeter
	client *http.Client
	// keys and recordBytes index the corpus by request (restore's
	// traced run only).
	keys        map[request]store.Key
	recordBytes map[request]int64
}

// startStack builds the workload's serving stack. corpus is the plan
// store directory (restore only).
func startStack(w workload, corpus string) (*stack, error) {
	s := &stack{
		w:   w,
		rec: trace.NewRecorder(trace.Config{Process: "perfbench-" + w.name}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			DisableCompression:  true,
		}},
	}
	cfg := service.Config{
		EngineOptions: []tapas.Option{tapas.WithCache(w.cache)},
		Trace:         s.rec,
	}
	if w.store {
		st, err := store.Open(store.Options{Dir: corpus})
		if err != nil {
			s.close()
			return nil, err
		}
		s.st = st
		cfg.EngineOptions = append(cfg.EngineOptions, tapas.WithStore(st))
	}
	if w.scatter {
		exec, err := startServer(service.Config{EngineOptions: []tapas.Option{tapas.WithCache(0)}}, &meter{path: "/v1/tasks"})
		if err != nil {
			s.close()
			return nil, err
		}
		s.exec = exec
		s.coord = dispatch.New(dispatch.Options{Peers: []string{exec.url}})
		s.ship = &shipMeter{}
		runner := func(ref tapas.TaskRef) strategy.TaskRunner {
			r := s.coord.Runner(ref)
			if r == nil {
				return nil
			}
			return timedRunner{TaskRunner: r, m: s.ship}
		}
		cfg.EngineOptions = append(cfg.EngineOptions, tapas.WithTaskRunner(runner))
		cfg.Fleet = s.coord
	}
	front, err := startServer(cfg, nil)
	if err != nil {
		s.close()
		return nil, err
	}
	s.front = front
	return s, nil
}

func (s *stack) close() {
	if s.front != nil {
		s.front.close()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	if s.exec != nil {
		s.exec.close()
	}
	if s.st != nil {
		s.st.Close()
	}
	s.client.CloseIdleConnections()
}

// requestBodies are the pre-encoded POST /v1/search bodies.
var requestBodies = func() [][]byte {
	out := make([][]byte, len(requests))
	for i, r := range requests {
		out[i], _ = json.Marshal(service.SearchRequest{Model: r.Model, GPUs: r.GPUs})
	}
	return out
}()

// search sends request i and reads the whole body into buf. traceID,
// when set, asks the server to record the request in its flight
// recorder.
func (s *stack) search(i int, buf *bytes.Buffer, traceID string) (int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, s.front.url+"/v1/search", bytes.NewReader(requestBodies[i]))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(trace.TraceHeader, traceID)
	}
	buf.Reset()
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	return resp.StatusCode, lat, nil
}

// pass sends every request once, in order, and fails on any non-200.
func (s *stack) pass(order []int) error {
	var buf bytes.Buffer
	for _, i := range order {
		code, _, err := s.search(i, &buf, "")
		if err != nil {
			return fmt.Errorf("%s: %w", requests[i], err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", requests[i], code, bytes.TrimSpace(buf.Bytes()))
		}
	}
	return nil
}

// indexCorpus maps every request to its record's store key and size.
func (s *stack) indexCorpus(corpus string) error {
	s.keys = map[request]store.Key{}
	s.recordBytes = map[request]int64{}
	for _, k := range s.st.Keys() {
		rec, ok := s.st.Get(k)
		if !ok {
			continue
		}
		r := request{rec.Model, rec.GPUs}
		fi, err := os.Stat(filepath.Join(corpus, k.ID()+".json"))
		if err != nil {
			return err
		}
		s.keys[r] = k
		s.recordBytes[r] = fi.Size()
	}
	for _, r := range requests {
		if _, ok := s.keys[r]; !ok {
			return fmt.Errorf("%s: no record in the corpus", r)
		}
	}
	return nil
}
