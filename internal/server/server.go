// Package server is the sweep service: a long-running daemon that
// accepts sweep/table/ablation jobs over HTTP, runs them on a bounded
// worker pool through the same internal/report composition as the batch
// CLI, and caches whole job outputs in a tiered resultcache backend so
// repeat queries — from any client, against any daemon in a chain — are
// served from the fastest tier that holds them, byte-identical to a cold
// batch run.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tracerebase/internal/experiments"
	"tracerebase/internal/report"
	"tracerebase/internal/resultcache"
)

// Config parameterizes New.
type Config struct {
	// Backend stores whole job outputs (and is typically the same tiered
	// composition Base.Cache stores per-cell results through). Required.
	Backend resultcache.Backend
	// Base is the engine configuration template jobs merge into: its
	// Cache/Slabs/Exp handles and Parallelism are the daemon's;
	// per-job fields (instructions, warmup, sampling) are overwritten per
	// submission.
	Base experiments.SweepConfig
	// Workers bounds concurrent job executions (not HTTP connections);
	// <= 0 means 1. Cache-hit replies bypass the pool entirely.
	Workers int
	// Log receives operational notes; nil discards them.
	Log io.Writer
}

// Server is the daemon. Create with New, expose with Handler or Serve,
// stop with Shutdown.
type Server struct {
	backend resultcache.Backend
	base    experiments.SweepConfig
	sem     chan struct{}
	log     io.Writer
	start   time.Time

	httpSrv *http.Server

	mu      sync.Mutex
	running map[string]*job // single-flight registry keyed by hex job key
	jobs    sync.WaitGroup

	jobsComputed  atomic.Uint64
	jobsShared    atomic.Uint64
	jobsFromCache atomic.Uint64
	jobsFailed    atomic.Uint64
}

// New builds a Server over cfg.
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	log := cfg.Log
	if log == nil {
		log = io.Discard
	}
	return &Server{
		backend: cfg.Backend,
		base:    cfg.Base,
		sem:     make(chan struct{}, workers),
		log:     log,
		start:   time.Now(),
		running: make(map[string]*job),
	}
}

// Handler returns the daemon's HTTP surface:
//
//	POST /jobs    submit a report.Spec, stream Events as NDJSON
//	GET  /status  JSON status: jobs, workers, per-tier cache counters
//	GET  /query   execute ?q=<query string> against the experiment store,
//	              return the result as JSON (503 when no store is wired)
//	GET  /healthz liveness probe
//	     /cache/  the resultcache wire protocol over the daemon's backend
//	              (point another daemon's -remote tier here)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.Handle("/cache/", http.StripPrefix("/cache", resultcache.NewHTTPHandler(s.backend)))
	return mux
}

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.httpSrv = &http.Server{Handler: s.Handler()}
	err := s.httpSrv.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown is the graceful exit: stop accepting connections, let
// in-flight streams finish, drain the worker pool, then flush the
// write-back queue so every memory-tier entry is durable in the slower
// tiers before the process exits.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	s.jobs.Wait()
	if t, ok := s.backend.(*resultcache.Tiered); ok {
		t.Flush()
	}
	return err
}

// lookup serves key from the backend, reporting which tier answered.
func (s *Server) lookup(key resultcache.Key) (payload []byte, served string, ok bool) {
	if t, isTiered := s.backend.(*resultcache.Tiered); isTiered {
		payload, served, err := t.GetWithSource(key)
		return payload, served, err == nil
	}
	payload, err := s.backend.Get(key)
	return payload, s.backend.Name(), err == nil
}

// handleJobs is POST /jobs: resolve from cache, join an identical
// in-flight run, or lead a fresh computation — in every case streaming
// the full event sequence to the client.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	spec, err := decodeJobSpec(r.Body)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad job spec: %v", err), http.StatusBadRequest)
		return
	}
	key := spec.Key()
	w.Header().Set("Content-Type", "application/x-ndjson")

	start := time.Now()
	if payload, served, ok := s.lookup(key); ok {
		// Warm path: the whole output is a blob in some tier. No worker
		// slot, no generator, no converter — just bytes.
		s.jobsFromCache.Add(1)
		streamCached(w, key, payload, served, time.Since(start))
		return
	}

	j, leader := s.joinOrCreate(key.String())
	if leader {
		s.jobs.Add(1)
		go s.runJob(j, spec, key)
	} else {
		s.jobsShared.Add(1)
	}
	j.streamTo(w)
}

// decodeJobSpec reads a POST /jobs body: at most 1 MiB holding one JSON
// object with only report.Spec's fields, validated and normalized. A
// misspelled field is an error naming it, not a default silently applied.
func decodeJobSpec(body io.Reader) (report.Spec, error) {
	var spec report.Spec
	dec := json.NewDecoder(io.LimitReader(body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return spec, errors.New("trailing data after the job spec")
	}
	return spec, spec.Validate()
}

// streamCached emits the three-event sequence of a cache hit.
func streamCached(w http.ResponseWriter, key resultcache.Key, payload []byte, served string, elapsed time.Duration) {
	enc := json.NewEncoder(w)
	enc.Encode(Event{Type: "queued", Key: key.String()})
	enc.Encode(Event{Type: "chunk", Text: string(payload)})
	enc.Encode(Event{Type: "done", Served: served, ElapsedSeconds: elapsed.Seconds()})
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// joinOrCreate returns the in-flight job for key, creating it (leader =
// true) when none is running — the single-flight layer for whole jobs,
// mirroring what the result cache does per cell.
func (s *Server) joinOrCreate(key string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.running[key]; ok {
		return j, false
	}
	j := newJob(key)
	s.running[key] = j
	return j, true
}

// runJob is the leader path: wait for a worker slot, run the shared
// report composition into the event stream, store the output blob.
func (s *Server) runJob(j *job, spec report.Spec, key resultcache.Key) {
	defer s.jobs.Done()
	defer func() {
		s.mu.Lock()
		delete(s.running, j.key)
		s.mu.Unlock()
	}()

	start := time.Now()
	j.publish(Event{Type: "queued", Key: j.key})
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	j.publish(Event{Type: "started"})
	fmt.Fprintf(s.log, "job %s: started (%s)\n", j.key[:12], spec.Exp)

	cfg := spec.SweepConfig(s.base)
	cfg.Progress = func(done, total int) {
		j.publish(Event{Type: "progress", Done: done, Total: total})
	}
	cw := &chunkWriter{j: j}
	_, err := report.Run(cfg, spec, report.Output{Text: cw})
	cw.flush()
	if err != nil {
		s.jobsFailed.Add(1)
		fmt.Fprintf(s.log, "job %s: failed: %v\n", j.key[:12], err)
		j.publish(Event{Type: "error", Error: err.Error()})
		return
	}
	s.backend.Put(key, cw.full)
	s.jobsComputed.Add(1)
	fmt.Fprintf(s.log, "job %s: done in %.1fs (%d bytes)\n", j.key[:12], time.Since(start).Seconds(), len(cw.full))
	j.publish(Event{Type: "done", Served: "computed", ElapsedSeconds: time.Since(start).Seconds()})
}

// Status is the GET /status document.
type Status struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	JobsRunning   int     `json:"jobs_running"`
	JobsComputed  uint64  `json:"jobs_computed"`
	JobsFromCache uint64  `json:"jobs_from_cache"`
	JobsShared    uint64  `json:"jobs_shared"`
	JobsFailed    uint64  `json:"jobs_failed"`
	// Tiers is the per-tier counter breakdown of the job/result backend.
	Tiers []resultcache.BackendStats `json:"tiers"`
}

// StatusSnapshot returns the current Status document.
func (s *Server) StatusSnapshot() Status {
	s.mu.Lock()
	running := len(s.running)
	s.mu.Unlock()
	return Status{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       cap(s.sem),
		JobsRunning:   running,
		JobsComputed:  s.jobsComputed.Load(),
		JobsFromCache: s.jobsFromCache.Load(),
		JobsShared:    s.jobsShared.Load(),
		JobsFailed:    s.jobsFailed.Load(),
		Tiers:         resultcache.TierStats(s.backend),
	}
}

// handleQuery is GET /query?q=<query string>: run a query over the
// daemon's experiment store — cells recorded by every job it has executed
// — and return the rows as JSON. Other parameters are ignored.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.base.Exp == nil {
		http.Error(w, "no experiment store (daemon started with -no-exp-store?)", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing ?q=<query string>", http.StatusBadRequest)
		return
	}
	res, err := report.Query(s.base.Exp, q, false)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	report.WriteQueryJSON(w, res)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.StatusSnapshot())
}
