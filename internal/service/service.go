// Package service implements deviantd's HTTP/JSON API: a resident
// analysis server that runs requests through the parallel pipeline with
// a shared content-addressed snapshot store, so repeated analyses of
// near-identical trees only pay the frontend for the units that changed.
//
// Endpoints:
//
//	POST /v1/analyze  analyze an in-memory source tree (?trace=1 embeds
//	                  a Chrome trace-event JSON of the run). With
//	                  Config.Coordinator set, the run shards across the
//	                  worker fleet instead of executing locally; output
//	                  is byte-identical either way (DESIGN.md §12).
//	POST /v1/shard    worker half of a distributed run: preprocess+parse
//	                  the shard's units, return mergeable partials
//	POST /v1/diff     §4.2 cross-version check of two trees
//	GET  /v1/rules    derived rule instances from the last analysis
//	POST /v1/jobs     queue an analysis asynchronously: 202 + job id,
//	                  per-tenant quotas (X-Deviant-Tenant), round-robin
//	                  fair scheduling across tenants (see jobs.go)
//	GET  /v1/jobs/{id}         poll job state
//	GET  /v1/jobs/{id}/result  finished AnalyzeResponse, byte-identical
//	                  to the synchronous /v1/analyze answer
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET  /v1/fleet/status  (coordinator mode) ring composition,
//	                  per-worker health/build info, last-scatter latency
//	GET  /healthz     liveness + build info (503 while draining)
//	GET  /metrics     Prometheus text format with HELP/TYPE metadata:
//	                  request latency histograms per endpoint, queue
//	                  depth, per-checker report counts and z-score
//	                  distributions, snapshot and token-cache traffic
//
// Observability is structured in three layers (see DESIGN.md §8): every
// request gets an ID that is logged (one slog JSON line per request when
// Config.Logger is set) and attached to the request's trace span; the
// obs.Registry aggregates counters/gauges/histograms for /metrics; and
// per-run tracing is opt-in per request via ?trace=1.
//
// Every analysis — sync analyze, diff, shard, and each async job — takes
// one of MaxConcurrent run slots and runs on its own request or job-worker
// goroutine. At most MaxConcurrent+QueueDepth sync requests are admitted
// at once, running or waiting for a slot; beyond that they are rejected
// immediately with 429 so clients back off instead of piling up (jobs
// wait in their own bounded queue). One timeout rule holds on every
// path: a run that reaches Timeout stops and returns what it has,
// flagged degraded with deadline-exceeded records, and a request answers
// 504 only if its deadline passes before it has any result (while
// waiting for a run slot, or while a coordinator scatter is still out).
// SIGTERM handling lives in cmd/deviantd: it marks the server draining
// (healthz flips to 503, new sync analyses get 503, accepted jobs still
// run) and lets http.Server.Shutdown wait for in-flight requests.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deviant"
	"deviant/internal/checkers/fail"
	"deviant/internal/checkers/lockvar"
	"deviant/internal/checkers/pairing"
	"deviant/internal/dist"
	"deviant/internal/fault"
	"deviant/internal/obs"
	"deviant/internal/report"
	"deviant/internal/snapshot"
)

// Config tunes the server. Zero values select the documented defaults.
type Config struct {
	// MaxWorkers clamps the per-request worker budget (0 = NumCPU).
	MaxWorkers int
	// MaxConcurrent is how many analyses run at once (0 = 2).
	MaxConcurrent int
	// QueueDepth is how many sync requests may be admitted beyond
	// MaxConcurrent, waiting for a run slot, before new ones are
	// rejected with 429 (0 = 8).
	QueueDepth int
	// Timeout bounds one request's wait for a run slot plus its analysis
	// (0 = 60s). A run that reaches it stops and answers with what it
	// has, flagged degraded. Async jobs get the same budget per run.
	Timeout time.Duration
	// JobQueueDepth caps jobs waiting to run across all tenants; beyond
	// it POST /v1/jobs answers 429 (0 = 16).
	JobQueueDepth int
	// JobsPerTenant caps one tenant's in-flight jobs, queued plus
	// running; beyond it that tenant's submissions get 429 while other
	// tenants are unaffected (0 = 4).
	JobsPerTenant int
	// JobHistory bounds retained terminal jobs: past it the oldest
	// finished jobs are forgotten, 404ing their ids (0 = 256).
	JobHistory int
	// JobDir, when non-empty, attaches a crash-safe write-ahead log to
	// the job subsystem: every accepted job is persisted through its
	// lifecycle, so a restart re-admits queued jobs, re-runs jobs that
	// were mid-flight, and keeps serving finished results byte-identical
	// to before the crash. An unusable directory degrades to in-memory
	// jobs with a warning rather than refusing to start.
	JobDir string
	// SnapshotUnits caps the snapshot store (0 = snapshot default).
	SnapshotUnits int
	// CacheDir, when non-empty, attaches a crash-safe persistent tier to
	// the snapshot store: artifacts survive daemon restarts, and corrupt
	// entries (torn writes, flipped bits) are evicted and recomputed. An
	// unusable directory degrades to memory-only caching with a warning
	// rather than refusing to start.
	CacheDir string
	// MaxBodyBytes caps a request body; larger payloads get 413
	// (0 = 32 MiB, enough for any realistic source tree while keeping a
	// hostile client from buffering gigabytes into the decoder).
	MaxBodyBytes int64
	// Logger, when non-nil, receives one structured line per request
	// (id, method, path, status, duration) plus lifecycle events. Nil
	// disables request logging (the default for embedded/test use).
	Logger *slog.Logger
	// Coordinator, when non-nil, puts /v1/analyze in coordinator mode:
	// sources shard across the fleet by content digest and the global
	// half of the pipeline runs here over the merged partials. The
	// local snapshot store is unused in this mode (frontend caching
	// lives on the workers). /v1/diff always runs locally. It also
	// enables GET /v1/fleet/status, the ring/health/build summary.
	Coordinator *dist.Coordinator
	// WorkerDialer, when non-nil alongside Coordinator, enables
	// POST /v1/fleet/workers — live fleet membership replacement. It maps
	// a worker name (its base URL) to the shard caller the coordinator
	// should use; retained names keep their health state, new members
	// join healthy, and every accepted update bumps the membership epoch.
	WorkerDialer func(name string) dist.ShardCaller
	// JournalWriter, when non-nil, receives one JSONL run-journal line
	// per event (run start, placement, shard lifecycle, quarantine,
	// rank, run end), every line keyed by the run's request id — the
	// adopted X-Deviant-Request-Id for distributed runs. Writes from
	// concurrent runs interleave at line granularity (each event is one
	// Write call). The caller owns the writer's lifecycle.
	JournalWriter io.Writer
}

func (c Config) withDefaults() Config {
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.NumCPU()
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.JobQueueDepth <= 0 {
		c.JobQueueDepth = 16
	}
	if c.JobsPerTenant <= 0 {
		c.JobsPerTenant = 4
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 256
	}
	return c
}

// Server is the deviantd HTTP handler.
type Server struct {
	cfg   Config
	store *snapshot.Store
	mux   *http.ServeMux
	log   *slog.Logger
	build obs.Build

	slots chan struct{} // sync admission: running + waiting
	run   chan struct{} // run slots, shared by every analysis

	draining  atomic.Bool
	nextID    atomic.Int64 // request id sequence
	nextJobID atomic.Int64 // job id sequence
	jobs      *jobManager
	joblog    *jobLog // nil unless Config.JobDir is usable

	// Metrics. The registry owns everything /metrics serves; the named
	// handles are the counters the handlers bump on their hot paths.
	reg       *obs.Registry
	requests  *obs.Counter // analyses + diffs accepted
	rejected  *obs.Counter // 429s
	timeouts  *obs.Counter // 504s
	panics    *obs.Counter // handler/worker panics recovered into 500s
	inflight  *obs.Gauge   // analyses holding a run slot
	waiting   *obs.Gauge   // analyses waiting for a run slot
	analyzeNs *obs.Counter // cumulative analysis wall clock, seconds

	jobsSubmitted *obs.Counter
	jobsRejected  *obs.Counter // 429s on POST /v1/jobs (quota or queue)
	jobsCompleted *obs.Counter
	jobsFailed    *obs.Counter
	jobsCanceled  *obs.Counter

	mu       sync.Mutex
	analyses int64   // completed analyses (sync and job), ids /v1/rules snapshots
	last     lastRun // the latest analysis's derived rule lists
}

// lastRun keeps the rule lists of the most recent analysis for
// GET /v1/rules, which flattens them only when asked: the lists are
// shared with the finished Result, so recording a run copies nothing.
type lastRun struct {
	analysis     int64
	pairs        []pairing.Pair
	canFail      []fail.Derived
	lockBindings []lockvar.Binding
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		store: snapshot.NewStore(cfg.SnapshotUnits),
		mux:   http.NewServeMux(),
		log:   cfg.Logger,
		build: obs.BuildInfo(),
		reg:   obs.NewRegistry(),
		slots: make(chan struct{}, cfg.MaxConcurrent+cfg.QueueDepth),
		run:   make(chan struct{}, cfg.MaxConcurrent),
	}
	if cfg.CacheDir != "" {
		if err := s.store.AttachDisk(cfg.CacheDir); err != nil && s.log != nil {
			s.log.Warn("cache dir unavailable, caching in memory only",
				"dir", cfg.CacheDir, "err", err.Error())
		}
	}
	var recovered []jobEntry
	if cfg.JobDir != "" {
		l, entries, corrupt, err := openJobLog(cfg.JobDir)
		if err != nil {
			if s.log != nil {
				s.log.Warn("job dir unavailable, jobs are not durable",
					"dir", cfg.JobDir, "err", err.Error())
			}
		} else {
			s.joblog = l
			recovered = entries
			if corrupt > 0 && s.log != nil {
				s.log.Warn("job log swept corrupt entries",
					"dir", cfg.JobDir, "count", corrupt)
			}
		}
	}
	s.initMetrics()
	if cfg.Coordinator != nil {
		cfg.Coordinator.RegisterMetrics(s.reg)
		s.mux.HandleFunc("GET /v1/fleet/status", s.handleFleetStatus)
		if cfg.WorkerDialer != nil {
			s.mux.HandleFunc("POST /v1/fleet/workers", s.handleFleetWorkers)
		}
	}
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/shard", s.handleShard)
	s.mux.HandleFunc("POST /v1/diff", s.handleDiff)
	s.mux.HandleFunc("GET /v1/rules", s.handleRules)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.jobs = newJobManager(s, recovered)
	return s
}

// journalFor returns a run journal bound to this request's id, or nil
// when journaling is off. Each run gets its own Journal (own seq
// counter); all runs share the configured writer.
func (s *Server) journalFor(ctx context.Context) *obs.Journal {
	if s.cfg.JournalWriter == nil {
		return nil
	}
	return obs.NewJournal(s.cfg.JournalWriter, requestID(ctx))
}

// initMetrics declares the server's metric families. Handler-owned
// counters get handles; values owned by other subsystems (the snapshot
// store, the admission channels) are registered as callbacks sampled at
// scrape time.
func (s *Server) initMetrics() {
	s.requests = s.reg.Counter("deviantd_requests_total",
		"Analyze and diff requests accepted for execution.")
	s.rejected = s.reg.Counter("deviantd_requests_rejected_total",
		"Requests rejected with 429 because the queue was full.")
	s.timeouts = s.reg.Counter("deviantd_requests_timeout_total",
		"Requests that exceeded the request timeout (504).")
	s.panics = s.reg.Counter("deviantd_panics_recovered_total",
		"Handler or analysis-worker panics recovered into 500 responses.")
	s.inflight = s.reg.Gauge("deviantd_requests_inflight",
		"Analyses currently executing (sync requests and jobs).")
	s.waiting = s.reg.Gauge("deviantd_queue_depth",
		"Analyses waiting for a run slot (sync requests and jobs).")
	s.analyzeNs = s.reg.Counter("deviantd_analysis_seconds_total",
		"Cumulative analysis wall clock, in seconds.")
	s.jobsSubmitted = s.reg.Counter("deviantd_jobs_submitted_total",
		"Async jobs accepted into the queue.")
	s.jobsRejected = s.reg.Counter("deviantd_jobs_rejected_total",
		"Async job submissions rejected with 429 (tenant quota or queue full).")
	s.jobsCompleted = s.reg.Counter("deviantd_jobs_completed_total",
		"Async jobs that finished with a result.")
	s.jobsFailed = s.reg.Counter("deviantd_jobs_failed_total",
		"Async jobs that ended in an error.")
	s.jobsCanceled = s.reg.Counter("deviantd_jobs_canceled_total",
		"Async jobs canceled before publishing a result.")
	s.reg.GaugeFunc("deviantd_jobs_queued",
		"Async jobs accepted but not yet holding a run slot.",
		func() float64 { q, _ := s.jobs.counts(); return float64(q) })
	s.reg.GaugeFunc("deviantd_jobs_running",
		"Async jobs holding a run slot.",
		func() float64 { _, r := s.jobs.counts(); return float64(r) })
	s.reg.CounterFunc("deviantd_snapshot_unit_hits",
		"Snapshot lookups answered from the store.",
		func() float64 { return float64(s.store.Stats().UnitHits) })
	s.reg.CounterFunc("deviantd_snapshot_unit_misses",
		"Snapshot lookups that forced a cold frontend run.",
		func() float64 { return float64(s.store.Stats().UnitMisses) })
	s.reg.CounterFunc("deviantd_snapshot_evictions",
		"Snapshot artifacts dropped by the LRU bound.",
		func() float64 { return float64(s.store.Stats().Evictions) })
	s.reg.CounterFunc("deviantd_snapshot_lookup_seconds_total",
		"Cumulative wall clock spent verifying snapshot content digests.",
		func() float64 { return time.Duration(s.store.Stats().LookupNs).Seconds() })
	s.reg.GaugeFunc("deviantd_snapshot_units",
		"Translation-unit artifacts resident in the snapshot store.",
		func() float64 { return float64(s.store.Stats().Units) })
	s.reg.GaugeFunc("deviantd_snapshot_graphs",
		"Function CFGs resident in the snapshot store.",
		func() float64 { return float64(s.store.Stats().Graphs) })
	s.reg.GaugeFunc("deviantd_snapshot_partials",
		"Per-function checker partials resident in the snapshot store.",
		func() float64 { return float64(s.store.Stats().Partials) })
	// Pre-create one latency histogram per endpoint so a fresh scrape
	// shows the full set.
	for _, ep := range []string{"analyze", "shard", "diff", "rules", "jobs", "healthz", "metrics"} {
		s.latencyFor(ep)
	}
	// Go runtime self-metrics + the build-info gauge, for every role:
	// fleet debugging needs to see each process's goroutines, heap, GC
	// behavior and build identity from its own /metrics.
	obs.RegisterRuntimeMetrics(s.reg)
}

// latencyFor returns the request-latency histogram for one endpoint.
func (s *Server) latencyFor(endpoint string) *obs.Histogram {
	return s.reg.Histogram("deviantd_request_seconds",
		"HTTP request latency by endpoint.", obs.LatencyBuckets,
		obs.L("endpoint", endpoint))
}

// endpointOf maps a request path onto its latency/log label. Unknown
// paths share one bucket so label cardinality stays bounded; every
// job route (submit, status, result, cancel) shares "jobs" for the
// same reason — job ids must not become label values.
func endpointOf(path string) string {
	if path == "/v1/jobs" || strings.HasPrefix(path, "/v1/jobs/") {
		return "jobs"
	}
	switch path {
	case "/v1/analyze":
		return "analyze"
	case "/v1/shard":
		return "shard"
	case "/v1/diff":
		return "diff"
	case "/v1/rules":
		return "rules"
	case "/v1/fleet/status":
		return "fleet_status"
	case "/healthz":
		return "healthz"
	case "/metrics":
		return "metrics"
	default:
		return "other"
	}
}

// sanitizeRequestID accepts an incoming request ID only when it is
// short and printable ASCII; anything else returns "" and the server
// assigns its own. Log lines and trace attributes must never carry
// attacker-shaped bytes.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return ""
		}
	}
	return id
}

type ridKey struct{}

// requestID returns the request's assigned ID ("" outside ServeHTTP).
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// statusWriter captures the response status for logging and tracks
// whether anything reached the wire yet, so the panic recovery path
// knows if it can still write a clean 500.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// ServeHTTP implements http.Handler: it assigns the request ID, times the
// request into the per-endpoint latency histogram, emits one structured
// log line when a logger is configured, and converts a handler panic into
// a 500 JSON error carrying the request ID — the daemon must outlive any
// single request, whatever that request did.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := fmt.Sprintf("r%06d", s.nextID.Add(1))
	// A coordinator propagates its request ID to the workers it scatters
	// to, so one distributed run shares one ID across every node's log.
	// Adopt it only when it is sane: bounded and printable.
	if rid := sanitizeRequestID(r.Header.Get(dist.RequestIDHeader)); rid != "" {
		id = rid
	}
	r = r.WithContext(context.WithValue(r.Context(), ridKey{}, id))
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			s.panics.Inc()
			cause := fault.Redact(v)
			if s.log != nil {
				s.log.Error("handler panic", "id", id, "path", r.URL.Path, "cause", cause)
			}
			if !sw.wrote {
				writeError(sw, http.StatusInternalServerError,
					"internal error; request id %s", id)
			}
		}
		dur := time.Since(start)
		s.latencyFor(endpointOf(r.URL.Path)).Observe(dur.Seconds())
		if s.log != nil {
			s.log.Info("request",
				"id", id,
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.code,
				"dur_ms", float64(dur.Microseconds())/1e3)
		}
	}()
	fault.Trap("service", r.URL.Path)
	s.mux.ServeHTTP(sw, r)
}

// SetDraining flips the server into (or out of) drain mode: healthz
// reports 503 so load balancers stop routing here, and new analysis
// requests are refused while in-flight ones finish.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Store exposes the snapshot store (for stats in tests and cmd/deviantd).
func (s *Server) Store() *snapshot.Store { return s.store }

// Registry exposes the metrics registry, so embedders can add their own
// families to the same /metrics scrape.
func (s *Server) Registry() *obs.Registry { return s.reg }

// RequestOptions is the per-request analysis configuration, mirroring the
// CLI flags of the same names.
type RequestOptions struct {
	Checkers string  `json:"checkers,omitempty"`
	P0       float64 `json:"p0,omitempty"`
	NoMemo   bool    `json:"no_memo,omitempty"`
	NoPrune  bool    `json:"no_prune,omitempty"`
	Workers  int     `json:"workers,omitempty"`
	Top      int     `json:"top,omitempty"`
	Trust    bool    `json:"trust,omitempty"`
}

type AnalyzeRequest struct {
	Sources map[string]string `json:"sources"`
	Options RequestOptions    `json:"options"`
}

type DiffRequest struct {
	OldSources map[string]string `json:"old_sources"`
	NewSources map[string]string `json:"new_sources"`
	Options    RequestOptions    `json:"options"`
}

// AnalyzeResponse mirrors the CLI's -json output: the same summary
// fields and the same report.JSONReport shape, plus the run's snapshot
// reuse counters. Trace is present only when the request asked for
// ?trace=1: Chrome trace-event JSON, loadable directly in Perfetto.
// Degraded and Quarantined appear only when fault containment isolated
// part of the run (see DESIGN.md §10): the result is still valid for
// everything outside the listed records.
type AnalyzeResponse struct {
	Units       int                 `json:"units"`
	Functions   int                 `json:"functions"`
	Lines       int                 `json:"lines"`
	ParseErrors int                 `json:"parse_errors"`
	Degraded    bool                `json:"degraded,omitempty"`
	Quarantined []fault.Record      `json:"quarantined,omitempty"`
	Reports     []report.JSONReport `json:"reports"`
	Snapshot    snapshot.RunStats   `json:"snapshot"`
	Trace       json.RawMessage     `json:"trace,omitempty"`
}

type JSONDrift struct {
	Kind string `json:"kind"`
	Func string `json:"func"`
	Pos  string `json:"pos"`
	Msg  string `json:"msg"`
}

type DiffResponse struct {
	Drifts []JSONDrift     `json:"drifts"`
	New    AnalyzeResponse `json:"new"`
}

type JSONRule struct {
	Kind     string  `json:"kind"` // pair | can-fail | lock
	A        string  `json:"a"`
	B        string  `json:"b,omitempty"`
	Checks   int     `json:"checks"`
	Examples int     `json:"examples"`
	Z        float64 `json:"z"`
}

type RulesResponse struct {
	Analysis int64      `json:"analysis"` // 0 until the first analyze
	Rules    []JSONRule `json:"rules"`
}

type ErrorResponse struct {
	Error string `json:"error"`
}

// encodeBody renders v into the exact bytes writeJSON puts on the wire.
// The job log persists these bytes for finished jobs, so a result served
// after a restart is byte-identical to one served before it.
func encodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, _ := encodeBody(v)
	writeRawJSON(w, status, body)
}

// writeRawJSON serves pre-encoded response bytes (a recovered job result,
// or anything encodeBody produced) without a decode/re-encode round trip.
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// retryAfterSecs derives the Retry-After hint from current queue
// pressure: an idle server invites an immediate retry (1s), and each
// analysis waiting for a run slot adds a second, capped at 30.
func (s *Server) retryAfterSecs() int {
	return min(1+int(s.waiting.Value()), 30)
}

// writeFailure maps an admission or run failure onto the wire. The two
// statuses that invite a retry — 429 (queue full) and 503 (draining) —
// carry a Retry-After hint so well-behaved clients back off instead of
// hammering; see internal/client.
func (s *Server) writeFailure(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
	}
	writeError(w, status, "%s", msg)
}

// buildOptions maps request options onto core options, clamping the
// worker budget to the server's configured ceiling.
func (s *Server) buildOptions(ro RequestOptions) (deviant.Options, error) {
	opts := deviant.DefaultOptions()
	if ro.Checkers != "" {
		c, err := deviant.ParseChecks(ro.Checkers)
		if err != nil {
			return opts, err
		}
		opts.Checks = c
	}
	if ro.P0 != 0 {
		if ro.P0 < 0 || ro.P0 >= 1 {
			return opts, fmt.Errorf("p0 %v out of range (0, 1)", ro.P0)
		}
		opts.P0 = ro.P0
	}
	opts.Memoize = !ro.NoMemo
	opts.DisableCrashPruning = ro.NoPrune
	opts.Workers = s.cfg.MaxWorkers
	if ro.Workers > 0 && ro.Workers < s.cfg.MaxWorkers {
		opts.Workers = ro.Workers
	}
	opts.Snapshot = s.store
	return opts, nil
}

// runSlot waits for one of the MaxConcurrent run slots — the one gate
// every analysis passes, sync request or job — and returns its release,
// or ctx's error if ctx ends first.
func (s *Server) runSlot(ctx context.Context) (func(), error) {
	s.waiting.Add(1)
	select {
	case s.run <- struct{}{}:
	case <-ctx.Done():
		s.waiting.Add(-1)
		return nil, ctx.Err()
	}
	s.waiting.Add(-1)
	s.inflight.Add(1)
	return func() {
		s.inflight.Add(-1)
		<-s.run
	}, nil
}

// admit reserves capacity for one sync request: a place among the
// running and waiting ones, then a run slot. It returns an idempotent
// release func on success, or an HTTP status + message when the request
// cannot run.
func (s *Server) admit(ctx context.Context) (func(), int, string) {
	if s.draining.Load() {
		return nil, http.StatusServiceUnavailable, "server is draining"
	}
	select {
	case s.slots <- struct{}{}:
	default:
		s.rejected.Inc()
		return nil, http.StatusTooManyRequests, "queue full, retry later"
	}
	release, err := s.runSlot(ctx)
	if err != nil {
		<-s.slots
		s.timeouts.Inc()
		return nil, http.StatusGatewayTimeout, "timed out waiting for a run slot"
	}
	s.requests.Inc()
	var once sync.Once
	return func() {
		once.Do(func() {
			release()
			<-s.slots
		})
	}, 0, ""
}

// decodeRequest parses a JSON body under the configured size cap.
// Malformed or truncated JSON (and unknown fields) are the client's
// fault: 400. A body larger than MaxBodyBytes is a different contract
// violation and gets its own status, 413, so clients can distinguish
// "fix your JSON" from "shrink your tree".
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func validateSources(sources map[string]string) error {
	if len(sources) == 0 {
		return fmt.Errorf("no sources")
	}
	for name := range sources {
		if strings.HasSuffix(name, ".c") {
			return nil
		}
	}
	return fmt.Errorf("no .c translation units in sources")
}

// render converts a finished run into the wire shape, applying the
// request's presentation options (top, trust).
func render(res *deviant.Result, units int, ro RequestOptions) AnalyzeResponse {
	ranked := res.Reports.Ranked()
	if ro.Trust {
		ranked = res.Reports.RankedWithTrust(res.Reports.TrustFromMustErrors())
	}
	if ro.Top > 0 && len(ranked) > ro.Top {
		ranked = ranked[:ro.Top]
	}
	reports := make([]report.JSONReport, len(ranked))
	for i := range ranked {
		reports[i] = report.ToJSON(i+1, &ranked[i])
	}
	return AnalyzeResponse{
		Units:       units,
		Functions:   res.FuncCount,
		Lines:       res.LineCount,
		ParseErrors: len(res.ParseErrors),
		Degraded:    res.Degraded,
		Quarantined: res.Quarantined,
		Reports:     reports,
		Snapshot:    res.Snapshot,
	}
}

func countUnits(sources map[string]string) int {
	n := 0
	for name := range sources {
		if strings.HasSuffix(name, ".c") {
			n++
		}
	}
	return n
}

// execute runs one AnalyzeRequest on a run slot the caller holds: the
// one run body behind POST /v1/analyze and every job. The pipeline stops
// at ctx's deadline and returns what it has, flagged degraded; only a
// coordinator scatter still out at the deadline leaves no result, and
// then the error is ctx's. A panic anywhere in the run is contained here
// and returned as an error, so neither a request nor a job worker dies
// with it.
func (s *Server) execute(ctx context.Context, req AnalyzeRequest, opts deviant.Options, runID string) (resp *AnalyzeResponse, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Inc()
			resp, err = nil, fmt.Errorf("analysis worker panicked: %s", fault.Redact(p))
		}
	}()
	fault.Trap("service-worker", "run")
	opts.Deadline, _ = ctx.Deadline()
	t := time.Now()
	var res *deviant.Result
	if c := s.cfg.Coordinator; c != nil {
		// Coordinator mode: same options, same output bytes, but the
		// frontend runs on the fleet (DESIGN.md §12).
		res, err = c.Run(ctx, req.Sources, opts, runID)
	} else {
		res, err = deviant.Analyze(req.Sources, opts)
	}
	s.analyzeNs.Add(time.Since(t).Seconds())
	if err != nil {
		return nil, err
	}
	s.recordRun(res)
	r := render(res, countUnits(req.Sources), req.Options)
	opts.Journal.Event("rank",
		obs.A("reports", strconv.Itoa(len(r.Reports))),
		obs.A("functions", strconv.Itoa(res.FuncCount)),
		obs.A("parse_errors", strconv.Itoa(len(res.ParseErrors))))
	return &r, nil
}

// recordRun folds a finished analysis into the server's state: metrics,
// the analysis counter, and the rule lists GET /v1/rules serves.
func (s *Server) recordRun(res *deviant.Result) {
	res.RecordMetrics(s.reg)
	s.mu.Lock()
	s.analyses++
	s.last = lastRun{analysis: s.analyses, pairs: res.Pairs,
		canFail: res.CanFail, lockBindings: res.LockBindings}
	s.mu.Unlock()
}

// rules flattens the derived rule instances, each kind in its own
// ranked order.
func (r *lastRun) rules() []JSONRule {
	rules := make([]JSONRule, 0, len(r.pairs)+len(r.canFail)+len(r.lockBindings))
	for _, p := range r.pairs {
		rules = append(rules, JSONRule{Kind: "pair", A: p.Key.A, B: p.Key.B,
			Checks: p.Checks, Examples: p.Examples(), Z: p.Z})
	}
	for _, d := range r.canFail {
		rules = append(rules, JSONRule{Kind: "can-fail", A: d.Key,
			Checks: d.Checks, Examples: d.Examples(), Z: d.Z})
	}
	for _, b := range r.lockBindings {
		rules = append(rules, JSONRule{Kind: "lock", A: b.Key.Lock, B: b.Key.Var,
			Checks: b.Checks, Examples: b.Examples(), Z: b.Z})
	}
	return rules
}

// wantTrace reports whether the request opted into per-run tracing.
func wantTrace(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true", "on":
		return true
	}
	return false
}

// exportTrace renders the request's spans as Chrome trace-event JSON for
// embedding in the response.
func exportTrace(tr *deviant.Tracer) json.RawMessage {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return nil
	}
	return bytes.TrimSpace(buf.Bytes())
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	if err := validateSources(req.Sources); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts, err := s.buildOptions(req.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var tr *deviant.Tracer
	var reqSpan *deviant.Span
	if wantTrace(r) {
		tr = deviant.NewTracer()
		opts.Tracer = tr
		// The request span ties the trace back to the daemon's log line
		// for the same request ID.
		reqSpan = tr.Start("request",
			deviant.A("id", requestID(r.Context())),
			deviant.A("endpoint", "analyze"))
	}
	journal := s.journalFor(r.Context())
	opts.Journal = journal
	mode := "local"
	if s.cfg.Coordinator != nil {
		mode = "coordinator"
	}
	journal.Event("run_start",
		obs.A("endpoint", "analyze"), obs.A("mode", mode),
		obs.A("units", strconv.Itoa(countUnits(req.Sources))))
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	release, status, msg := s.admit(ctx)
	var resp *AnalyzeResponse
	if release != nil {
		resp, err = s.execute(ctx, req, opts, requestID(ctx))
		release()
		switch {
		case err == nil:
		case ctx.Err() != nil: // no result by the deadline: a scatter was still out
			s.timeouts.Inc()
			status, msg = http.StatusGatewayTimeout, "analysis timed out"
		default:
			status, msg = http.StatusInternalServerError, err.Error()
		}
	}
	reqSpan.End()
	if status != 0 {
		journal.Event("run_end", obs.A("status", strconv.Itoa(status)))
		s.writeFailure(w, status, msg)
		return
	}
	if tr != nil {
		resp.Trace = exportTrace(tr)
	}
	journal.Event("run_end", obs.A("status", "200"))
	writeJSON(w, http.StatusOK, resp)
}

// handleShard is the worker half of a distributed run: preprocess and
// parse this shard's units, answer with token-stream partials the
// coordinator merges. Shards take a run slot like any analysis — a
// worker is just a deviantd that only ever sees frontend work — and,
// once started, run to completion: the coordinator's transport owns this
// call's timeout.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req dist.ShardRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	if len(req.Units) == 0 {
		writeError(w, http.StatusBadRequest, "shard has no units")
		return
	}
	for _, u := range req.Units {
		if _, ok := req.Sources[u]; !ok {
			writeError(w, http.StatusBadRequest, "unit %q not in sources", u)
			return
		}
		if !strings.HasSuffix(u, ".c") {
			writeError(w, http.StatusBadRequest, "unit %q is not a translation unit", u)
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	release, status, msg := s.admit(ctx)
	if release == nil {
		s.writeFailure(w, status, msg)
		return
	}
	defer release() // a panic must not leak the slot
	t := time.Now()
	resp, err := dist.RunShard(&req, s.store, s.cfg.MaxWorkers)
	s.analyzeNs.Add(time.Since(t).Seconds())
	release()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// Piggyback this worker's scalar metric families on the response —
	// the zero-extra-round-trip half of metrics federation (the
	// coordinator's background scrape is the other half).
	resp.Metrics = s.reg.Samples()
	writeJSON(w, http.StatusOK, resp)
}

// handleFleetStatus serves the coordinator's fleet summary: ring
// composition, per-worker health/build identity, last scatter latency.
// Registered only in coordinator mode.
func (s *Server) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Coordinator.Status())
}

// FleetWorkersRequest is the wire shape for POST /v1/fleet/workers: the
// full replacement member list, each entry a worker base URL (which is
// also its ring name, so placement survives coordinator restarts).
type FleetWorkersRequest struct {
	Workers []string `json:"workers"`
}

// handleFleetWorkers replaces the fleet's member set live: in-flight
// runs finish on the epoch they started with, the next run places on
// the new one. Rejected sets (empty, duplicate names) leave the current
// epoch untouched and answer 400. Registered only in coordinator mode
// with a WorkerDialer.
func (s *Server) handleFleetWorkers(w http.ResponseWriter, r *http.Request) {
	var req FleetWorkersRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	workers := make([]dist.Worker, 0, len(req.Workers))
	for _, raw := range req.Workers {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		workers = append(workers, dist.Worker{Name: name, Caller: s.cfg.WorkerDialer(name)})
	}
	if err := s.cfg.Coordinator.SetWorkers(workers); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := s.cfg.Coordinator.Status()
	if s.log != nil {
		s.log.Info("fleet workers replaced", "workers", st.Size, "epoch", st.Epoch)
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	var req DiffRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	if err := validateSources(req.OldSources); err != nil {
		writeError(w, http.StatusBadRequest, "old_sources: %v", err)
		return
	}
	if err := validateSources(req.NewSources); err != nil {
		writeError(w, http.StatusBadRequest, "new_sources: %v", err)
		return
	}
	opts, err := s.buildOptions(req.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	release, status, msg := s.admit(ctx)
	if release == nil {
		s.writeFailure(w, status, msg)
		return
	}
	defer release() // a panic must not leak the slot
	opts.Deadline, _ = ctx.Deadline()
	t := time.Now()
	found, res, err := deviant.Diff(req.OldSources, req.NewSources, opts)
	s.analyzeNs.Add(time.Since(t).Seconds())
	release()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	res.RecordMetrics(s.reg)
	drifts := make([]JSONDrift, len(found))
	for i, d := range found {
		drifts[i] = JSONDrift{Kind: d.Kind, Func: d.Func, Pos: d.Pos.String(), Msg: d.Msg}
	}
	writeJSON(w, http.StatusOK, DiffResponse{
		Drifts: drifts,
		New:    render(res, countUnits(req.NewSources), req.Options),
	})
}

// handleRules builds the rules body from the last run's lists on
// request; analyses never pay for a flattening nobody reads.
func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	last := s.last
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, RulesResponse{Analysis: last.analysis, Rules: last.rules()})
}

// HealthResponse is the /healthz body: liveness plus the binary's build
// identity, so fleet tooling can tell which revision answered.
type HealthResponse struct {
	Status string    `json:"status"`
	Build  obs.Build `json:"build"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining", Build: s.build})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Build: s.build})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WritePrometheus(w)
}
