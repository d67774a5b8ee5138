package service

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ncc/internal/graphio"
	"ncc/internal/scenario"
)

// Config parameterizes a Server. Zero values mean the defaults.
type Config struct {
	// WorkerBudget is the total number of engine workers shared across every
	// concurrently executing job (default GOMAXPROCS). A single run never
	// uses more than the budget; concurrent runs split it, FIFO-fair.
	// Coordinator mode ignores it — a coordinator executes nothing itself.
	WorkerBudget int

	// Executors is the number of jobs executing concurrently (default 2).
	// Runs within one job are always sequential: the record stream is
	// ordered like a local sweep. Ignored in coordinator mode, where
	// concurrency is the sum of registered worker capacities.
	Executors int

	// QueueLimit bounds the number of queued jobs, those waiting for an
	// executor or a worker slot; submissions beyond it are refused with 429
	// and Retry-After: 1 (default 256).
	QueueLimit int

	// CacheDir, when non-empty, persists completed sweeps in a blob store so
	// the cache survives restarts: the records and the trace of a sweep are
	// verified <sha256>.ndjson blobs, and <scenarioHash>.ref names the pair.
	// Empty keeps the cache in memory only.
	CacheDir string

	// MaxBodyBytes bounds a submission body (default 1 MiB).
	MaxBodyBytes int64

	// RetainJobs bounds how many jobs the daemon remembers (default 1024).
	// When a new submission would exceed it, the oldest terminal jobs are
	// forgotten (their results stay in the result cache); running and queued
	// jobs are never pruned. A forgotten job id answers 404.
	RetainJobs int

	// CacheEntries bounds the in-memory result-cache entries (default 4096),
	// evicted FIFO. With CacheDir set, evicted sweeps remain on disk and are
	// re-promoted on their next hit.
	CacheEntries int

	// WorkerTTL (coordinator mode) is how long a worker stays live without a
	// heartbeat before it is expired and its in-flight jobs re-dispatched
	// (default 10s).
	WorkerTTL time.Duration

	// JobAttempts (coordinator mode) bounds how many workers a job is tried
	// on before it is failed (default 3). Re-dispatch after a worker death is
	// safe because the canonical scenario hash makes execution idempotent:
	// the retry replays a deterministic stream and the coordinator skips the
	// lines it already has.
	JobAttempts int

	// GraphDir, when non-empty, opens a content-addressed graph store there
	// and serves it at /v1/graphs/{hash}: clients PUT ingested .nccg graphs
	// before submitting file-family scenarios, and cluster workers GET graphs
	// their dispatched jobs reference. Empty disables the graph API.
	GraphDir string

	// MaxGraphBytes bounds an uploaded graph body (default 1 GiB — graphs are
	// much larger than scenario JSON, so they get their own limit).
	MaxGraphBytes int64

	// ClusterToken, when non-empty, requires `Authorization: Bearer <token>`
	// on every /v1/ route (jobs, campaigns, and the cluster membership API).
	// /healthz and /metrics stay open for probes and scrapers. The same token
	// authenticates coordinator→worker dispatch and worker→coordinator
	// registration, so one shared secret secures the whole cluster.
	ClusterToken string

	// Pprof serves net/http/pprof under /debug/pprof/ on the same mux. Like
	// /healthz and /metrics it is deliberately outside the cluster-token guard
	// (the guard covers /v1/ only): profiles carry no scenario data, and
	// profiling tooling cannot send bearer tokens. Leave it off on daemons
	// exposed beyond a trusted network.
	Pprof bool

	// Logger receives the service's structured logs — job admissions and
	// terminal states, cluster dispatches, worker membership — each carrying
	// the job/trace/worker ids needed to correlate a log line with its trace
	// stream and metrics series. Nil discards logs (tests, embedding).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = runtime.GOMAXPROCS(0)
	}
	if c.Executors <= 0 {
		c.Executors = 2
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxGraphBytes <= 0 {
		c.MaxGraphBytes = 1 << 30
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 1024
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = 10 * time.Second
	}
	if c.JobAttempts <= 0 {
		c.JobAttempts = 3
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the scenario-execution service behind cmd/nccd: the HTTP surface
// over one job pipeline. It validates submitted scenarios against the
// registries, admits them through the JobStore (coalescing identical
// in-flight work and answering repeats from the result cache), queues
// admitted jobs in the pipeline, which runs each in a slot of its
// ExecBackend — in-process executors (LocalBackend) or a worker cluster
// (RemoteBackend) — and streams each job's logs to its clients.
type Server struct {
	cfg       Config
	m         *metrics
	cache     *cache
	store     *JobStore
	jobs      *pipeline
	cluster   *RemoteBackend // non-nil in coordinator mode; adds /v1/workers
	campaigns *campaignStore
	graphs    *graphio.Store // non-nil with GraphDir set; adds /v1/graphs
}

// New builds a single-process Server executing jobs on a LocalBackend
// (creating the cache directory if configured).
func New(cfg Config) (*Server, error) {
	return build(cfg, func(cfg Config, m *metrics) (ExecBackend, *RemoteBackend) {
		return newLocalBackend(cfg.WorkerBudget, cfg.Executors, m), nil
	})
}

// NewCoordinator builds a Server in cluster-coordinator mode: it executes
// nothing itself, instead sharding admitted jobs across worker daemons that
// register via POST /v1/workers and proxying their record streams.
func NewCoordinator(cfg Config) (*Server, error) {
	return build(cfg, func(cfg Config, m *metrics) (ExecBackend, *RemoteBackend) {
		rb := newRemoteBackend(cfg, m)
		return rb, rb
	})
}

func build(cfg Config, mk func(Config, *metrics) (ExecBackend, *RemoteBackend)) (*Server, error) {
	cfg = cfg.withDefaults()
	c, err := newCache(cfg.CacheDir, cfg.CacheEntries)
	if err != nil {
		return nil, err
	}
	m := newMetrics()
	var graphs *graphio.Store
	if cfg.GraphDir != "" {
		if graphs, err = graphio.NewStore(cfg.GraphDir); err != nil {
			return nil, err
		}
	}
	backend, cluster := mk(cfg, m)
	return &Server{
		cfg:       cfg,
		m:         m,
		cache:     c,
		store:     newJobStore(cfg.RetainJobs),
		jobs:      newPipeline(backend, cfg.QueueLimit, c, m, cfg.Logger),
		cluster:   cluster,
		campaigns: newCampaignStore(0),
		graphs:    graphs,
	}, nil
}

// Drain stops accepting submissions and waits for queued and running jobs to
// finish. If ctx expires first, every live job is canceled (in-flight runs
// unwind within one round; proxied jobs are canceled on their workers) and
// Drain returns ctx.Err after the tail completes. Drain is idempotent only in
// its refusal of new work; call it once.
func (s *Server) Drain(ctx context.Context) error {
	s.store.SetDraining()
	err := s.jobs.drain(ctx, s.store.CancelAll)
	if s.cluster != nil {
		s.cluster.stop()
	}
	return err
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs              submit a scenario (strict JSON), returns JobInfo
//	GET    /v1/jobs              list jobs in submission order (?state=, ?limit=)
//	GET    /v1/jobs/{id}         one job's status
//	GET    /v1/jobs/{id}/records NDJSON record stream, live while the job runs
//	GET    /v1/jobs/{id}/trace   NDJSON telemetry trace (internal/obs format)
//	POST   /v1/jobs/{id}/cancel  cancel a queued or running job
//	DELETE /v1/jobs/{id}         same as cancel (idiomatic client teardown)
//	GET    /healthz              liveness (and drain state)
//	GET    /metrics              Prometheus text metrics
//
// plus the campaign API:
//
//	POST   /v1/campaigns             submit a campaign spec (strict JSON)
//	GET    /v1/campaigns             list campaigns in submission order
//	GET    /v1/campaigns/{id}        one campaign's status and unit→job map
//	GET    /v1/campaigns/{id}/report comparative report (JSON, ?format=text)
//
// Coordinator mode adds the cluster membership API:
//
//	POST   /v1/workers           register / heartbeat a worker daemon
//	GET    /v1/workers           list registered workers
//	DELETE /v1/workers/{name}    deregister a worker immediately
//
// With GraphDir set, the content-addressed graph store is served too:
//
//	PUT    /v1/graphs/{hash}     upload a .nccg graph (validated, idempotent)
//	GET    /v1/graphs/{hash}     download a stored graph's bytes
//
// With ClusterToken set, every /v1/ route requires the bearer token. With
// Pprof set, net/http/pprof is served under /debug/pprof/ (token-exempt).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/records", s.handleRecords)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/campaigns", s.handleCampaignSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleCampaignList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleCampaignStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/report", s.handleCampaignReport)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cluster != nil {
		mux.HandleFunc("POST /v1/workers", s.cluster.handleRegister)
		mux.HandleFunc("GET /v1/workers", s.cluster.handleWorkers)
		mux.HandleFunc("DELETE /v1/workers/{name}", s.cluster.handleDeregister)
	}
	if s.graphs != nil {
		mux.HandleFunc("GET /v1/graphs/{hash}", s.handleGraphGet)
		mux.HandleFunc("PUT /v1/graphs/{hash}", s.handleGraphPut)
	}
	if s.cfg.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	if s.cfg.ClusterToken != "" {
		return requireToken(s.cfg.ClusterToken, mux)
	}
	return mux
}

// requireToken guards every /v1/ route behind `Authorization: Bearer <token>`.
// Liveness and metrics stay open: probes and scrapers hold no secrets, and
// neither endpoint exposes scenario data.
func requireToken(token string, next http.Handler) http.Handler {
	want := []byte("Bearer " + token)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			got := []byte(r.Header.Get("Authorization"))
			if subtle.ConstantTimeCompare(got, want) != 1 {
				w.Header().Set("WWW-Authenticate", `Bearer realm="nccd"`)
				httpError(w, http.StatusUnauthorized, "missing or invalid cluster token")
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "scenario body exceeds %d bytes", tooLarge.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	sc, err := scenario.Decode(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := sc.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	hash, err := sc.Hash()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	j, coalesced, err := s.admitDetail(sc, hash)
	if err != nil {
		refuse(w, err, "%v", err)
		return
	}
	if coalesced {
		writeJSON(w, http.StatusOK, j.Info())
		return
	}
	writeJSON(w, http.StatusCreated, j.Info())
}

// refuse answers a refused admission: 429 with Retry-After while the queue is
// full, which a later retry can get past, and 503 while the daemon drains.
func refuse(w http.ResponseWriter, err error, format string, args ...any) {
	status := http.StatusServiceUnavailable
	if errors.Is(err, errQueueFull) {
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	}
	httpError(w, status, format, args...)
}

// admitDetail runs the shared admission path for one validated, hashed
// scenario — cache lookup, JobStore admission (coalescing in-flight twins),
// pipeline submit — and maintains the admission metrics.
func (s *Server) admitDetail(sc scenario.Scenario, hash string) (j *Job, coalesced bool, err error) {
	// The cache lookup may touch disk; do it before the store's admission
	// lock so submissions never serialize the status/health endpoints behind
	// file I/O. A hit that lands between this lookup and the lock merely
	// costs a redundant execution — coalescing in Admit still catches
	// in-flight twins.
	cached, cachedTrace, hit := s.cache.get(hash)

	j, coalesced, err = s.store.Admit(sc, hash, cached, cachedTrace, hit, s.jobs.submit)
	if err != nil {
		return nil, false, err
	}
	if coalesced {
		s.m.jobsCoalesced.Add(1)
		s.cfg.Logger.Debug("submission coalesced", "job", j.ID, "trace", j.TraceID, "scenario", hash)
		return j, true, nil
	}
	if hit {
		s.m.cacheHits.Add(1)
	} else {
		s.m.cacheMisses.Add(1)
	}
	s.m.jobsSubmitted.Add(1)
	s.cfg.Logger.Info("job admitted", "job", j.ID, "trace", j.TraceID, "scenario", hash, "cached", hit)
	return j, false, nil
}

// admit is admitDetail for callers that treat coalescing as success.
func (s *Server) admit(sc scenario.Scenario, hash string) (*Job, error) {
	j, _, err := s.admitDetail(sc, hash)
	return j, err
}

func (s *Server) job(r *http.Request) (*Job, bool) {
	return s.store.Get(r.PathValue("id"))
}

// handleList answers GET /v1/jobs: every retained job in submission order,
// optionally filtered with ?state=queued|running|done|failed|canceled and
// truncated with ?limit=N to the N most recent matches.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := State(q.Get("state"))
	switch state {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
	default:
		httpError(w, http.StatusBadRequest, "unknown state %q (have queued, running, done, failed, canceled)", state)
		return
	}
	limit := 0
	if ls := q.Get("limit"); ls != "" {
		v, err := strconv.Atoi(ls)
		if err != nil || v < 0 {
			httpError(w, http.StatusBadRequest, "limit %q is not a non-negative integer", ls)
			return
		}
		limit = v
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.store.List(state, limit)})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Info())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.Info())
}

func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	serveLog(w, r, j, recordLog, &s.m.recordsStreamed)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("X-NCC-Job-Id", j.ID)
	w.Header().Set("X-NCC-Trace-Id", j.TraceID)
	serveLog(w, r, j, traceLog, &s.m.traceLinesStreamed)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "draining": s.store.Draining()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	total, free := s.jobs.backend.Capacity()
	var workers []WorkerInfo
	if s.cluster != nil {
		workers = s.cluster.reg.snapshot()
	}
	s.m.render(w, total, free, s.cache.len(), workers, s.cluster != nil)
}
