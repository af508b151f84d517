package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"upmgo"
)

// ErrJobNotFound reports a job id the server has never issued or has
// since forgotten (see maxTerminalJobs). The HTTP layer maps it to 404
// Not Found; matched with errors.Is.
var ErrJobNotFound = errors.New("sweepd: job not found")

// maxTerminalJobs caps how many finished (done or failed) jobs the server
// remembers. Each submission forgets the oldest finished jobs past it —
// status, result and event history — so a long-lived daemon's memory
// stays bounded. Queued and running jobs are never forgotten.
const maxTerminalJobs = 64

// jobState is a job's place in its lifecycle. States only move forward:
// queued → running → done|failed.
type jobState string

const (
	jobQueued  jobState = "queued"
	jobRunning jobState = "running"
	jobDone    jobState = "done"
	jobFailed  jobState = "failed"
)

// cellRef points one of a job's cells at its store record: fetch it at
// /v1/cells/{address} once the job is done.
type cellRef struct {
	Bench   string `json:"bench"`
	Label   string `json:"label"`
	Address string `json:"address,omitempty"` // empty: cell not memoizable, never stored
}

// job is one submitted sweep. All fields are guarded by server.mu; the
// status JSON served to clients is a snapshot taken under the lock.
type job struct {
	ID        string             `json:"id"`
	State     jobState           `json:"state"`
	Request   upmgo.SweepRequest `json:"request"`
	Cells     []cellRef          `json:"cells"`
	CellsDone int                `json:"cells_done"`
	Error     string             `json:"error,omitempty"`
	Result    *upmgo.SweepResult `json:"result,omitempty"`

	// Host-side telemetry, invisible to the status JSON: the lifecycle
	// event log behind GET /v1/jobs/{id}/events, and the timestamps the
	// queue-wait and run-time histograms are computed from.
	events   []jobEvent
	accepted time.Time
	started  time.Time
}

// server is the job API: a bounded queue feeding one worker goroutine
// that runs jobs in submission order (each job's cells simulate
// concurrently on the runner's pool), over a shared cache and optional
// result store.
type server struct {
	jobsWide int // runner pool width per job
	cache    *upmgo.SweepCache
	store    *upmgo.ResultStore
	reg      *upmgo.MetricsRegistry

	mu     sync.Mutex
	cond   *sync.Cond // on mu; broadcast on every appended job event
	jobs   map[string]*job
	order  []string // submission order, for GET /v1/jobs
	nextID int

	log *slog.Logger

	queue chan *job
	done  chan struct{} // closed when the worker exits (drain complete)
}

func newServer(jobsWide, queueCap int, st *upmgo.ResultStore, logger *slog.Logger) *server {
	cache := upmgo.NewSweepCache()
	if st != nil {
		cache.SetStore(st)
	}
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	reg := upmgo.NewMetricsRegistry()
	upmgo.DescribeSweepGauges(reg)
	upmgo.PublishBuildInfo(reg)
	reg.Describe("upmgo_sweepd_jobs", "gauge", "Jobs by lifecycle state.")
	reg.DescribeHistogram(upmgo.MetricJobQueueSeconds,
		"Seconds jobs spent queued (accepted to started).", nil)
	reg.DescribeHistogram(upmgo.MetricJobRunSeconds,
		"Seconds jobs spent running (started to terminal state).", nil)
	reg.DescribeHistogram(upmgo.MetricHTTPSeconds,
		"HTTP request latency by endpoint pattern and status code.", nil)
	s := &server{
		jobsWide: jobsWide,
		cache:    cache,
		store:    st,
		reg:      reg,
		log:      logger,
		jobs:     map[string]*job{},
		queue:    make(chan *job, queueCap),
		done:     make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// handler builds the versioned API mux. The metrics endpoint (plus
// /debug/vars, /debug/pprof/ and the index page) is the same handler
// cmd/sweep serves on -metrics-addr, mounted as the fallback so the
// /v1 patterns take precedence.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", upmgo.MetricsHandler(s.reg))
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/cells/{address}", s.handleCell)
	return s.withTelemetry(mux)
}

// statusWriter captures the response code for the latency histogram and
// the request log. It forwards Flush so the NDJSON event stream keeps
// its live-tail behaviour through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withTelemetry wraps the mux with per-request latency observation and
// structured request logging. The endpoint label is the mux's matched
// pattern ("GET /v1/jobs/{id}"), so path parameters never explode the
// label space; unmatched paths share the fallback's pattern.
func (s *server) withTelemetry(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		elapsed := time.Since(t0)
		pattern := r.Pattern
		if pattern == "" {
			pattern = "unmatched"
		}
		s.reg.Observe(upmgo.MetricHTTPSeconds,
			upmgo.MetricsLabels{"endpoint": pattern, "code": strconv.Itoa(sw.code)},
			elapsed.Seconds())
		s.log.Info("request",
			"method", r.Method, "path", r.URL.Path, "endpoint", pattern,
			"code", sw.code, "elapsed", elapsed)
	})
}

// httpError writes a JSON error body with the status the error maps to:
// bad requests 400, unknown jobs/cells 404, corrupt records 500.
func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// maxJobBody caps the body of POST /v1/jobs. A sweep request is a few
// hundred bytes; the cap stops a client from streaming an unbounded body
// into the decoder.
const maxJobBody = 1 << 20

// handleSubmit validates a sweep request, enumerates its cells, and
// enqueues it. A body over maxJobBody answers 413 and a full queue 503 so
// the client can back off; the submission itself never blocks on
// simulation.
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
	dec.DisallowUnknownFields()
	var req upmgo.SweepRequest
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, fmt.Errorf("bad request body: %w", err))
		return
	}
	// SweepSpecs re-validates the kind (decode already did, via the
	// enum's UnmarshalText) and yields the progress denominator plus each
	// cell's store address, so clients know where results will land
	// before a single cell has run.
	specs, err := upmgo.SweepSpecs(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	cells := make([]cellRef, len(specs))
	for i, spec := range specs {
		cells[i] = cellRef{Bench: spec.Bench, Label: spec.Config.Label()}
		if key, ok := spec.Key(); ok {
			cells[i].Address = upmgo.StoreAddress(key)
		}
	}

	s.mu.Lock()
	s.nextID++
	j := &job{
		ID:       fmt.Sprintf("job-%d", s.nextID),
		State:    jobQueued,
		Request:  req,
		Cells:    cells,
		accepted: time.Now(),
	}
	select {
	case s.queue <- j:
	default:
		s.nextID--
		s.mu.Unlock()
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, errors.New("job queue full"))
		return
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.forgetTerminal()
	s.appendEvent(j, jobEvent{Type: "job_queued", Total: len(cells)})
	snap := *j
	s.publishJobGauges()
	s.mu.Unlock()
	s.log.Info("job queued", "job", j.ID, "kind", req.Kind.String(), "cells", len(cells))

	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	writeJSON(w, http.StatusAccepted, snap)
}

// forgetTerminal drops the oldest terminal jobs past maxTerminalJobs.
// Caller holds s.mu.
func (s *server) forgetTerminal() {
	excess := -maxTerminalJobs
	for _, j := range s.jobs {
		if j.State.terminal() {
			excess++
		}
	}
	s.order = slices.DeleteFunc(s.order, func(id string) bool {
		if excess <= 0 || !s.jobs[id].State.terminal() {
			return false
		}
		delete(s.jobs, id)
		excess--
		return true
	})
}

// handleList serves every remembered job's status, oldest first.
func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.jobs[id])
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var snap job
	if ok {
		snap = *j
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrJobNotFound, r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleCell serves one store record verbatim — the exact bytes `sweep
// -store` or a finished job persisted, integrity-checked on the way out.
// Served bytes are therefore byte-identical to what any other process
// computes for the same cell.
func (s *server) handleCell(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		httpError(w, http.StatusNotFound, errors.New("no result store attached (start sweepd with -store)"))
		return
	}
	blob, err := s.store.ReadRecord(r.PathValue("address"))
	switch {
	case errors.Is(err, upmgo.ErrStoreNotFound):
		httpError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, upmgo.ErrStoreCorrupt):
		// The record exists but cannot be trusted; a re-run of the sweep
		// (here or via the CLI) repairs it in place.
		httpError(w, http.StatusInternalServerError, err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
}

// work is the single job executor: jobs run one at a time in submission
// order until ctx is cancelled, at which point still-queued jobs fail
// fast (the drain contract: the running job finishes, nothing new
// starts).
func (s *server) work(ctx context.Context) {
	defer close(s.done)
	for {
		select {
		case <-ctx.Done():
			s.failQueued()
			return
		case j := <-s.queue:
			if ctx.Err() != nil {
				s.fail(j, errors.New("server draining"))
				continue
			}
			s.runJob(ctx, j)
		}
	}
}

// failQueued drains the queue channel, failing everything not yet run.
func (s *server) failQueued() {
	for {
		select {
		case j := <-s.queue:
			s.fail(j, errors.New("server draining"))
		default:
			return
		}
	}
}

func (s *server) fail(j *job, err error) {
	s.mu.Lock()
	j.State = jobFailed
	j.Error = err.Error()
	s.appendEvent(j, jobEvent{Type: "job_failed", CellsDone: j.CellsDone, Error: j.Error})
	s.publishJobGauges()
	s.mu.Unlock()
	s.log.Warn("job failed", "job", j.ID, "error", err)
}

// runJob executes one sweep on the shared cache/store, streaming
// per-cell progress into the job record and the metrics registry.
func (s *server) runJob(ctx context.Context, j *job) {
	s.mu.Lock()
	j.State = jobRunning
	j.started = time.Now()
	queueWait := j.started.Sub(j.accepted)
	s.appendEvent(j, jobEvent{Type: "job_started", Total: len(j.Cells)})
	s.publishJobGauges()
	s.mu.Unlock()
	s.reg.Observe(upmgo.MetricJobQueueSeconds, nil, queueWait.Seconds())
	s.log.Info("job started", "job", j.ID, "queue_wait", queueWait)

	r := upmgo.SweepRunner{
		Jobs:  s.jobsWide,
		Cache: s.cache,
		OnEvent: func(ev upmgo.SweepEvent) {
			upmgo.PublishSweepEvent(s.reg, s.cache, ev)
			s.mu.Lock()
			if ev.Done {
				j.CellsDone++
			}
			s.appendEvent(j, cellEvent(j, ev))
			s.mu.Unlock()
		},
	}
	res, err := r.Sweep(ctx, j.Request)

	s.mu.Lock()
	if err != nil {
		j.State = jobFailed
		j.Error = err.Error()
		s.appendEvent(j, jobEvent{Type: "job_failed", CellsDone: j.CellsDone, Error: j.Error})
	} else {
		j.State = jobDone
		j.Result = &res
		s.appendEvent(j, jobEvent{Type: "job_done", CellsDone: j.CellsDone, Total: len(j.Cells)})
	}
	state := j.State
	cellsDone := j.CellsDone
	elapsed := time.Since(j.started)
	s.publishJobGauges()
	s.mu.Unlock()
	s.reg.Observe(upmgo.MetricJobRunSeconds,
		upmgo.MetricsLabels{"state": string(state)}, elapsed.Seconds())
	if err != nil {
		s.log.Warn("job failed", "job", j.ID, "elapsed", elapsed, "error", err)
	} else {
		s.log.Info("job done", "job", j.ID, "elapsed", elapsed, "cells", cellsDone)
	}
}

// publishJobGauges re-derives the per-state job counts. Called under
// s.mu on every transition; the registry locks internally.
func (s *server) publishJobGauges() {
	counts := map[jobState]int{}
	for _, j := range s.jobs {
		counts[j.State]++
	}
	for _, st := range []jobState{jobQueued, jobRunning, jobDone, jobFailed} {
		s.reg.Set("upmgo_sweepd_jobs", upmgo.MetricsLabels{"state": string(st)}, float64(counts[st]))
	}
}
