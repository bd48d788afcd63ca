package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lockedBuffer is a JournalWriter safe for the job workers' background
// writes to race the test's reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// submitJob posts one job for tenant and returns the decoded status and
// the recorder (for headers on rejections).
func submitJob(t *testing.T, s *Server, tenant string, sources map[string]string) (JobStatus, *httptest.ResponseRecorder) {
	t.Helper()
	payload, err := json.Marshal(AnalyzeRequest{Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(payload))
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	var st JobStatus
	if rr.Code == http.StatusAccepted {
		if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
			t.Fatalf("job status not JSON: %s", rr.Body.Bytes())
		}
	}
	return st, rr
}

func getJSON(t *testing.T, s *Server, path string, out any) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	if out != nil && rr.Code/100 == 2 {
		if err := json.Unmarshal(rr.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: not JSON: %s", path, rr.Body.Bytes())
		}
	}
	return rr
}

// waitJob polls the status endpoint until the job is terminal.
func waitJob(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		rr := getJSON(t, s, "/v1/jobs/"+id, &st)
		if rr.Code != http.StatusOK {
			t.Fatalf("poll %s: %d: %s", id, rr.Code, rr.Body.Bytes())
		}
		if terminal(st.State) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// TestJobResultMatchesSyncAnalyze is the core contract: submit → poll →
// result returns byte-for-byte what a synchronous /v1/analyze of the
// same tree answers. Each path runs on its own fresh server so both see
// a cold snapshot store — the response embeds the run's reuse counters,
// which are warmth-dependent by design.
func TestJobResultMatchesSyncAnalyze(t *testing.T) {
	rr, sync := postJSON(t, New(Config{}), "/v1/analyze", AnalyzeRequest{Sources: svcSources()})
	if rr.Code != http.StatusOK {
		t.Fatalf("sync analyze: %d: %s", rr.Code, sync)
	}

	s := New(Config{})
	st, srr := submitJob(t, s, "acme", svcSources())
	if srr.Code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", srr.Code, srr.Body.Bytes())
	}
	if st.State != JobQueued || st.Tenant != "acme" || st.ID == "" {
		t.Fatalf("submit status: %+v", st)
	}
	if loc := srr.Header().Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}

	if got := waitJob(t, s, st.ID); got.State != JobDone {
		t.Fatalf("job ended %+v, want done", got)
	}
	res := getJSON(t, s, "/v1/jobs/"+st.ID+"/result", nil)
	if res.Code != http.StatusOK {
		t.Fatalf("result: %d: %s", res.Code, res.Body.Bytes())
	}
	if !bytes.Equal(res.Body.Bytes(), sync) {
		t.Fatalf("job result differs from sync analyze\n--- job ---\n%s\n--- sync ---\n%s",
			res.Body.Bytes(), sync)
	}

	// A result can be fetched more than once.
	if again := getJSON(t, s, "/v1/jobs/"+st.ID+"/result", nil); !bytes.Equal(again.Body.Bytes(), sync) {
		t.Fatal("second result fetch differs")
	}
}

// TestJobUnknownAndNotReady pins the error statuses: 404 for ids the
// server never issued (or evicted), 409 for a result that is not done
// yet.
func TestJobUnknownAndNotReady(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	gate := make(chan struct{})
	s.jobs.runHook = func(*job) { <-gate }

	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result"} {
		if rr := getJSON(t, s, path, nil); rr.Code != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, rr.Code)
		}
	}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("DELETE", "/v1/jobs/nope", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("DELETE unknown: %d, want 404", rr.Code)
	}

	st, _ := submitJob(t, s, "a", svcSources())
	if res := getJSON(t, s, "/v1/jobs/"+st.ID+"/result", nil); res.Code != http.StatusConflict {
		t.Fatalf("result before done: %d, want 409", res.Code)
	}
	close(gate)
	waitJob(t, s, st.ID)
}

// TestJobQueueFull pins the backpressure contract: with the single
// worker wedged and the queue at capacity, the next submission gets 429
// with a Retry-After hint, and the rejection counts in /metrics.
func TestJobQueueFull(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, JobQueueDepth: 2, JobsPerTenant: 99})
	gate := make(chan struct{})
	s.jobs.runHook = func(*job) { <-gate }
	defer close(gate)

	first, _ := submitJob(t, s, "t0", svcSources())
	// Wait until the worker picked it up so the queue depth is exact.
	waitState(t, s, first.ID, JobRunning)
	for i := 0; i < 2; i++ {
		if _, rr := submitJob(t, s, "t0", svcSources()); rr.Code != http.StatusAccepted {
			t.Fatalf("fill %d: %d: %s", i, rr.Code, rr.Body.Bytes())
		}
	}
	_, rr := submitJob(t, s, "t0", svcSources())
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: %d, want 429: %s", rr.Code, rr.Body.Bytes())
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After hint")
	}
	if !strings.Contains(rr.Body.String(), "queue full") {
		t.Fatalf("rejection reason: %s", rr.Body.Bytes())
	}

	metrics := getJSON(t, s, "/metrics", nil).Body.String()
	if !strings.Contains(metrics, "deviantd_jobs_rejected_total 1") {
		t.Fatal("rejection not counted in /metrics")
	}
}

// waitMetric polls /metrics until it carries line, or fails.
func waitMetric(t *testing.T, s *Server, line string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(getJSON(t, s, "/metrics", nil).Body.String(), line+"\n") {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("/metrics never showed %q", line)
}

// waitState polls until the job reports state, or fails.
func waitState(t *testing.T, s *Server, id, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		getJSON(t, s, "/v1/jobs/"+id, &st)
		if st.State == state {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, state)
}

// TestJobTenantQuota pins multi-tenant isolation: a tenant at its
// in-flight cap gets 429 naming the quota, while a different tenant
// still submits freely against the same queue.
func TestJobTenantQuota(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, JobsPerTenant: 2, JobQueueDepth: 16})
	gate := make(chan struct{})
	s.jobs.runHook = func(*job) { <-gate }

	var last JobStatus
	for i := 0; i < 2; i++ {
		st, rr := submitJob(t, s, "greedy", svcSources())
		if rr.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, rr.Code)
		}
		last = st
	}
	_, rr := submitJob(t, s, "greedy", svcSources())
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota: %d, want 429: %s", rr.Code, rr.Body.Bytes())
	}
	if !strings.Contains(rr.Body.String(), "greedy") {
		t.Fatalf("quota rejection does not name the tenant: %s", rr.Body.Bytes())
	}
	if _, rr := submitJob(t, s, "modest", svcSources()); rr.Code != http.StatusAccepted {
		t.Fatalf("other tenant rejected alongside: %d: %s", rr.Code, rr.Body.Bytes())
	}

	// Quota is in-flight, not lifetime: once a greedy job finishes, the
	// tenant can submit again. The closed gate lets every later job
	// pass the hook without blocking.
	close(gate)
	waitJob(t, s, last.ID)
	if _, rr := submitJob(t, s, "greedy", svcSources()); rr.Code != http.StatusAccepted {
		t.Fatalf("submit after quota freed: %d", rr.Code)
	}
}

// TestJobFairScheduling pins round-robin across tenants: with tenant A
// holding a deep queue, tenant B's single job runs after A's next job,
// not after A's whole backlog.
func TestJobFairScheduling(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, JobsPerTenant: 8, JobQueueDepth: 16})
	var mu sync.Mutex
	order := []string{}
	gate := make(chan struct{})
	blockFirst := true
	s.jobs.runHook = func(j *job) {
		mu.Lock()
		order = append(order, j.tenant)
		first := blockFirst
		blockFirst = false
		mu.Unlock()
		if first {
			<-gate
		}
	}

	a1, _ := submitJob(t, s, "a", svcSources())
	waitState(t, s, a1.ID, JobRunning) // worker wedged on a's first job
	var ids []string
	for i := 0; i < 3; i++ {
		st, _ := submitJob(t, s, "a", svcSources())
		ids = append(ids, st.ID)
	}
	b1, _ := submitJob(t, s, "b", svcSources())
	ids = append(ids, b1.ID)
	close(gate)
	for _, id := range append(ids, a1.ID) {
		waitJob(t, s, id)
	}

	mu.Lock()
	got := strings.Join(order, " ")
	mu.Unlock()
	if got != "a a b a a" {
		t.Fatalf("run order %q, want round-robin \"a a b a a\"", got)
	}
}

// TestJobCancel covers the cancellation shapes: a queued job dies
// without ever running, a running job is flagged, finishes quietly, and
// never publishes its result, and a job waiting for a run slot dies
// without ever starting.
func TestJobCancel(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, JobsPerTenant: 8})
	gate := make(chan struct{})
	var starts atomic.Int64
	s.jobs.runHook = func(*job) { starts.Add(1); <-gate }

	run, _ := submitJob(t, s, "a", svcSources())
	waitState(t, s, run.ID, JobRunning)
	queued, _ := submitJob(t, s, "a", svcSources())

	// Cancel the queued job: immediate, and it must never run.
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("DELETE", "/v1/jobs/"+queued.ID, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("cancel queued: %d: %s", rr.Code, rr.Body.Bytes())
	}
	var st JobStatus
	getJSON(t, s, "/v1/jobs/"+queued.ID, &st)
	if st.State != JobCanceled {
		t.Fatalf("queued job state %q after cancel", st.State)
	}

	// Cancel the running job mid-run, then release the worker: the job
	// must end canceled with no result, not done.
	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("DELETE", "/v1/jobs/"+run.ID, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("cancel running: %d: %s", rr.Code, rr.Body.Bytes())
	}
	close(gate)
	if got := waitJob(t, s, run.ID); got.State != JobCanceled {
		t.Fatalf("running job ended %q after cancel, want canceled", got.State)
	}
	if res := getJSON(t, s, "/v1/jobs/"+run.ID+"/result", nil); res.Code != http.StatusConflict {
		t.Fatalf("result of canceled job: %d, want 409", res.Code)
	}

	// Cancel of a terminal job is a conflict.
	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("DELETE", "/v1/jobs/"+run.ID, nil))
	if rr.Code != http.StatusConflict {
		t.Fatalf("double cancel: %d, want 409", rr.Code)
	}

	// The canceled-while-queued job never reached the hook.
	metrics := getJSON(t, s, "/metrics", nil).Body.String()
	if !strings.Contains(metrics, "deviantd_jobs_canceled_total 2") {
		t.Fatal("cancellations not counted in /metrics")
	}

	// A job waiting for the run slot (held here as a sync analysis would
	// hold it) is canceled without starting.
	s.run <- struct{}{}
	waiting, _ := submitJob(t, s, "a", svcSources())
	waitMetric(t, s, "deviantd_queue_depth 1")
	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("DELETE", "/v1/jobs/"+waiting.ID, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("cancel waiting: %d: %s", rr.Code, rr.Body.Bytes())
	}
	if got := waitJob(t, s, waiting.ID); got.State != JobCanceled {
		t.Fatalf("waiting job ended %q after cancel, want canceled", got.State)
	}
	<-s.run
	if n := starts.Load(); n != 1 {
		t.Fatalf("%d jobs started, want only the first", n)
	}
}

// TestJobQueuedUntilRunSlot pins that a job a worker has taken but that
// still waits for a run slot (held here as a sync analysis would hold
// it) is queued on every surface: its status, the jobs_queued and
// jobs_running gauges, and its cancellation, which ends it without a
// job_start. Once the slot frees, the next job runs normally.
func TestJobQueuedUntilRunSlot(t *testing.T) {
	journal := &lockedBuffer{}
	s := New(Config{MaxConcurrent: 1, JobsPerTenant: 8, JournalWriter: journal})
	s.run <- struct{}{} // hold the only run slot

	waiting, _ := submitJob(t, s, "a", svcSources())
	waitMetric(t, s, "deviantd_queue_depth 1") // the job worker is at the gate
	var st JobStatus
	getJSON(t, s, "/v1/jobs/"+waiting.ID, &st)
	if st.State != JobQueued {
		t.Fatalf("job waiting for a run slot reports %q, want queued", st.State)
	}
	metrics := getJSON(t, s, "/metrics", nil).Body.String()
	for _, line := range []string{"deviantd_jobs_queued 1\n", "deviantd_jobs_running 0\n"} {
		if !strings.Contains(metrics, line) {
			t.Errorf("/metrics lacks %q while the job waits for a slot", strings.TrimSpace(line))
		}
	}

	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("DELETE", "/v1/jobs/"+waiting.ID, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("cancel waiting job: %d: %s", rr.Code, rr.Body.Bytes())
	}
	getJSON(t, s, "/v1/jobs/"+waiting.ID, &st)
	if st.State != JobCanceled {
		t.Fatalf("waiting job reports %q right after cancel, want canceled", st.State)
	}
	waitMetric(t, s, "deviantd_jobs_queued 0")
	if strings.Contains(journal.String(), `"job_start"`) {
		t.Fatalf("a job canceled while waiting for a slot started:\n%s", journal.String())
	}

	<-s.run // free the slot: the worker is free for the next job
	next, _ := submitJob(t, s, "a", svcSources())
	if got := waitJob(t, s, next.ID); got.State != JobDone {
		t.Fatalf("next job ended %q, want done", got.State)
	}
}

// TestJobDrainWithJobsInFlight pins the drain promise: accepted jobs
// finish, their results stay fetchable, and new submissions bounce with
// 503 + Retry-After while the drain is underway.
func TestJobDrainWithJobsInFlight(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, JobsPerTenant: 8})
	gate := make(chan struct{})
	s.jobs.runHook = func(*job) { <-gate }

	running, _ := submitJob(t, s, "a", svcSources())
	waitState(t, s, running.ID, JobRunning)
	queued, _ := submitJob(t, s, "a", svcSources())

	s.SetDraining(true)
	stopped := make(chan error, 1)
	go func() { stopped <- s.StopJobs(context.Background()) }()

	// While draining: no new jobs and no sync analyses, while the
	// accepted job keeps its run slot.
	_, rr := submitJob(t, s, "a", svcSources())
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if rr, body := postJSON(t, s, "/v1/analyze", AnalyzeRequest{Sources: svcSources()}); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("sync analyze while draining: %d, want 503: %s", rr.Code, body)
	}
	if m := getJSON(t, s, "/metrics", nil).Body.String(); !strings.Contains(m, "deviantd_requests_inflight 1\n") {
		t.Fatal("running job not counted in deviantd_requests_inflight")
	}

	close(gate)
	if err := <-stopped; err != nil {
		t.Fatalf("StopJobs: %v", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		var st JobStatus
		getJSON(t, s, "/v1/jobs/"+id, &st)
		if st.State != JobDone {
			t.Fatalf("job %s ended %q across drain, want done", id, st.State)
		}
		if res := getJSON(t, s, "/v1/jobs/"+id+"/result", nil); res.Code != http.StatusOK {
			t.Fatalf("result %s after drain: %d", id, res.Code)
		}
	}
}

// TestJobDrainDeadline pins the impatient drain: when the context
// expires with a job still wedged, StopJobs cancels the stragglers and
// returns the context error instead of hanging.
func TestJobDrainDeadline(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	gate := make(chan struct{})
	s.jobs.runHook = func(*job) { <-gate }
	st, _ := submitJob(t, s, "a", svcSources())
	waitState(t, s, st.ID, JobRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.StopJobs(ctx); err != context.DeadlineExceeded {
		t.Fatalf("StopJobs = %v, want DeadlineExceeded", err)
	}
	close(gate)
	if got := waitJob(t, s, st.ID); got.State != JobCanceled {
		t.Fatalf("wedged job ended %q, want canceled", got.State)
	}
}

// TestJobJournalLifecycle pins the journal vocabulary: one job emits
// job_submitted → job_start → (the run's own events) → job_end, every
// line keyed by the job id.
func TestJobJournalLifecycle(t *testing.T) {
	var buf lockedBuffer
	s := New(Config{JournalWriter: &buf})
	st, _ := submitJob(t, s, "acme", svcSources())
	if got := waitJob(t, s, st.ID); got.State != JobDone {
		t.Fatalf("job ended %+v", got)
	}

	var events []string
	for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var jl struct {
			Run   string `json:"run"`
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(l), &jl); err != nil {
			t.Fatalf("journal line not JSON: %s", l)
		}
		if jl.Run != st.ID {
			t.Fatalf("journal line under run %q, want job id %s: %s", jl.Run, st.ID, l)
		}
		events = append(events, jl.Event)
	}
	if len(events) < 3 || events[0] != "job_submitted" || events[1] != "job_start" ||
		events[len(events)-1] != "job_end" {
		t.Fatalf("lifecycle events out of order: %v", events)
	}
	seen := map[string]bool{}
	for _, e := range events {
		seen[e] = true
	}
	if !seen["rank"] {
		t.Fatalf("pipeline events missing from job journal: %v", events)
	}
}

// TestJobBadRequests pins validation on the submit path: malformed
// bodies and empty source maps are 400s, never queued.
func TestJobBadRequests(t *testing.T) {
	s := New(Config{})
	rr, body := postRaw(t, s, "/v1/jobs", []byte("not json"))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("malformed submit: %d: %s", rr.Code, body)
	}
	rr, body = postJSON(t, s, "/v1/jobs", AnalyzeRequest{Sources: map[string]string{}})
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("empty sources: %d: %s", rr.Code, body)
	}
	metrics := getJSON(t, s, "/metrics", nil).Body.String()
	if !strings.Contains(metrics, "deviantd_jobs_submitted_total 0") {
		t.Fatal("invalid submissions counted as accepted")
	}
}
