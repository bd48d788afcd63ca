// Async job API: POST /v1/jobs queues an analysis and returns
// immediately with a job id; GET /v1/jobs/{id} polls its state;
// GET /v1/jobs/{id}/result serves the finished AnalyzeResponse with the
// exact bytes a synchronous /v1/analyze of the same tree would have
// produced; DELETE /v1/jobs/{id} cancels. Jobs are multi-tenant: the
// X-Deviant-Tenant header names the submitter, each tenant holds at
// most JobsPerTenant jobs in flight (429 beyond that), and the
// scheduler drains tenant queues round-robin so one chatty tenant
// cannot starve the others. Lifecycle events (job_submitted, job_start,
// job_end, job_cancel) land in the run journal keyed by job id, with
// the pipeline's own run events interleaved under the same key.
package service

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"deviant/internal/obs"
)

// TenantHeader names the submitting tenant on job requests. Absent or
// unprintable values fall back to "default" — quotas still apply, they
// just pool the anonymous submitters together.
const TenantHeader = "X-Deviant-Tenant"

// Job states, as serialized on the wire.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// JobStatus is the wire shape for POST /v1/jobs, GET /v1/jobs/{id} and
// DELETE /v1/jobs/{id}. The result itself is NOT embedded — it has its
// own endpoint so its bytes can match a synchronous /v1/analyze exactly.
type JobStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`
}

// terminal reports whether a state is final.
func terminal(state string) bool {
	return state == JobDone || state == JobFailed || state == JobCanceled
}

// job is one queued or finished analysis.
type job struct {
	id     string
	tenant string
	req    AnalyzeRequest

	state    string
	errMsg   string
	respRaw  []byte             // encoded result body, exactly as served
	canceled bool               // cancel requested (may still be running)
	ending   string             // terminal state being persisted, then published
	ctx      context.Context    // the run's context, set when a worker takes the job
	cancel   context.CancelFunc // non-nil from the moment a worker takes the job
	journal  *obs.Journal       // keyed by job id, shared across lifecycle
	done     chan struct{}      // closed when the job reaches a terminal state
}

// status snapshots the wire view. Caller holds the manager lock.
func (j *job) statusLocked() JobStatus {
	return JobStatus{ID: j.id, Tenant: j.tenant, State: j.state, Error: j.errMsg}
}

// jobManager owns the queues, the scheduler workers and job retention.
// It runs MaxConcurrent workers; each takes one of the server's run slots
// per job, so jobs and sync requests share the same MaxConcurrent bound.
type jobManager struct {
	s *Server

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string          // submission order, for bounded retention
	queues   map[string][]*job // per-tenant FIFO of queued jobs
	replay   []*job            // recovered jobs, id order; head runs before any queue
	ring     []string          // tenants with queued work, round-robin
	next     int               // ring cursor
	queued   int               // jobs not yet holding a run slot, across all tenants
	running  int               // jobs holding a run slot right now
	active   map[string]int    // per-tenant queued+running
	runHook  func(*job)        // test seam, called at job start when set
	stopping bool

	wake chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

// newJobManager builds the manager and replays the job log's surviving
// entries before any worker starts: terminal jobs keep serving their
// persisted bytes, and jobs that were queued or running at crash time
// re-run first, one at a time in id order, before any new submission is
// scheduled — a log replays in order. Accepted work is promised work, so
// admission quotas do not apply to work that was already admitted once.
func newJobManager(s *Server, recovered []jobEntry) *jobManager {
	m := &jobManager{
		s:      s,
		jobs:   make(map[string]*job),
		queues: make(map[string][]*job),
		active: make(map[string]int),
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	var maxID int64
	for i := range recovered {
		e := &recovered[i]
		if n := jobIDNum(e.ID); n > maxID {
			maxID = n
		}
		var journal *obs.Journal
		if s.cfg.JournalWriter != nil {
			journal = obs.NewJournal(s.cfg.JournalWriter, e.ID)
		}
		j := &job{
			id:      e.ID,
			tenant:  e.Tenant,
			req:     e.Req,
			journal: journal,
			done:    make(chan struct{}),
		}
		switch e.State {
		case JobDone:
			j.state, j.respRaw = JobDone, e.Resp
			close(j.done)
		case JobFailed:
			j.state, j.errMsg = JobFailed, e.ErrMsg
			close(j.done)
		case JobCanceled:
			j.state, j.canceled = JobCanceled, true
			close(j.done)
		default: // queued or running at crash time: re-run from the log
			j.state = JobQueued
			m.replay = append(m.replay, j)
			m.queued++
			m.active[j.tenant]++
			journal.Event("job_recovered",
				obs.A("tenant", j.tenant), obs.A("prior_state", e.State))
		}
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
	}
	if maxID > 0 {
		// Recovered ids stay unique: fresh submissions continue the sequence.
		s.nextJobID.Store(maxID)
	}
	m.evictLocked() // no workers yet, so the lock is not needed
	for i := 0; i < s.cfg.MaxConcurrent; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for {
				j := m.pop()
				if j == nil {
					return
				}
				m.run(j)
			}
		}()
	}
	return m
}

// submit admits one job, or returns an HTTP status + message explaining
// the rejection (429 quota/queue pressure — both carry Retry-After).
func (m *jobManager) submit(id, tenant string, req AnalyzeRequest, journal *obs.Journal) (JobStatus, int, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopping {
		return JobStatus{}, http.StatusServiceUnavailable, "server is draining"
	}
	if m.active[tenant] >= m.s.cfg.JobsPerTenant {
		return JobStatus{}, http.StatusTooManyRequests,
			"tenant " + tenant + " has " + strconv.Itoa(m.active[tenant]) + " jobs in flight, retry later"
	}
	if m.queued >= m.s.cfg.JobQueueDepth {
		return JobStatus{}, http.StatusTooManyRequests, "job queue full, retry later"
	}
	j := &job{
		id:      id,
		tenant:  tenant,
		req:     req,
		state:   JobQueued,
		journal: journal,
		done:    make(chan struct{}),
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	if _, ok := m.queues[tenant]; !ok {
		m.ring = append(m.ring, tenant)
	}
	m.queues[tenant] = append(m.queues[tenant], j)
	m.queued++
	m.active[tenant]++
	m.evictLocked()
	// Persist before the 202 leaves this function: once the client has
	// an accepted id, a crash must not lose the job. Holding the lock
	// orders this write before any later state the job-worker persists.
	m.persist(m.entryLocked(j))
	m.signal()
	return j.statusLocked(), 0, ""
}

// entryLocked snapshots j's durable state for the job log, or nil when
// no log is attached. Caller holds the manager lock.
func (m *jobManager) entryLocked(j *job) *jobEntry {
	if m.s.joblog == nil {
		return nil
	}
	return &jobEntry{ID: j.id, Tenant: j.tenant, State: j.state,
		ErrMsg: j.errMsg, Req: j.req, Resp: j.respRaw}
}

// persist writes one snapshot to the job log. A failing disk costs that
// job its durability, never the request: the in-memory job proceeds and
// the failure is logged.
func (m *jobManager) persist(e *jobEntry) {
	if e == nil {
		return
	}
	if err := m.s.joblog.write(e); err != nil && m.s.log != nil {
		m.s.log.Warn("job log write failed", "job", e.ID, "err", err.Error())
	}
}

// signal nudges an idle worker. Buffered by one: a dropped signal is
// fine because every worker re-checks the queue before blocking.
func (m *jobManager) signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// evictLocked bounds retention: terminal jobs beyond JobHistory are
// forgotten, oldest first. Queued and running jobs are never evicted.
func (m *jobManager) evictLocked() {
	limit := m.s.cfg.JobHistory
	if len(m.jobs) <= limit {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if len(m.jobs) > limit && terminal(j.state) {
			delete(m.jobs, id)
			if m.s.joblog != nil {
				m.s.joblog.remove(id)
			}
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// pop blocks until a job is available (returned) or the manager stops
// (nil). Tenants are drained round-robin: after handing out one job the
// cursor advances, so a tenant with a deep queue yields between each of
// its jobs to every other tenant with work.
func (m *jobManager) pop() *job {
	for {
		m.mu.Lock()
		if j := m.dequeueLocked(); j != nil {
			if len(m.ring) > 0 {
				m.signal() // more work: wake another idle worker
			}
			m.mu.Unlock()
			return j
		}
		m.mu.Unlock()
		select {
		case <-m.wake:
		case <-m.stop:
			return nil
		}
	}
}

// dequeueLocked hands the next job to a worker. The job stays queued —
// in state, in the queued count and in the jobs_queued gauge — until the
// worker holds a run slot for it; its context is created here, so a
// cancel ends the wait for a slot.
func (m *jobManager) dequeueLocked() *job {
	var j *job
	switch {
	case len(m.replay) > 0:
		// The replay head stays in place until its run settles, so
		// recovered jobs run strictly one after another: a head a
		// worker has taken is not handed out again.
		if j = m.replay[0]; j.cancel != nil {
			return nil
		}
	case len(m.ring) > 0:
		m.next %= len(m.ring)
		tenant := m.ring[m.next]
		q := m.queues[tenant]
		j = q[0]
		if len(q) == 1 {
			delete(m.queues, tenant)
			m.ring = append(m.ring[:m.next], m.ring[m.next+1:]...)
		} else {
			m.queues[tenant] = q[1:]
			m.next++
		}
	default:
		return nil
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	return j
}

// run executes one job to a terminal state. The job waits for a run
// slot like any sync request, still queued, and then runs under the same
// Timeout. Cancellation is honored at the next observation point: a
// job canceled before it holds a slot is settled by cancelJob and never
// starts, the context aborts fleet scatters, the deadline bounds local
// compute, and a cancel-flagged running job discards its result instead
// of publishing it.
func (m *jobManager) run(j *job) {
	s := m.s
	defer j.cancel()
	release, err := s.runSlot(j.ctx)
	m.mu.Lock()
	if err != nil || j.canceled {
		// Canceled while waiting: cancelJob settled it as a queued job.
		m.mu.Unlock()
		if err == nil {
			release()
		}
		return
	}
	m.queued--
	m.running++
	j.state = JobRunning
	e := m.entryLocked(j) // state is running: a crash from here re-runs the job
	m.mu.Unlock()
	m.persist(e)
	j.journal.Event("job_start", obs.A("tenant", j.tenant))
	if m.runHook != nil {
		m.runHook(j)
	}
	var resp *AnalyzeResponse
	opts, err := s.buildOptions(j.req.Options)
	if err == nil {
		opts.Journal = j.journal
		rctx, rcancel := context.WithTimeout(j.ctx, s.cfg.Timeout)
		resp, err = s.execute(rctx, j.req, opts, j.id)
		rcancel()
	}
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	release()

	// Encode the result body outside the lock. These are the exact bytes
	// the result endpoint serves — and the exact bytes the job log
	// persists, so a restart cannot perturb a finished result.
	var respRaw []byte
	if resp != nil {
		raw, err := encodeBody(*resp)
		if err != nil {
			errMsg = "encode result: " + err.Error()
		} else {
			respRaw = raw
		}
	}

	m.mu.Lock()
	state := JobDone
	switch {
	case j.canceled:
		state, errMsg, respRaw = JobCanceled, "", nil
	case errMsg != "":
		state = JobFailed
	}
	m.settleLocked(j, state, errMsg, respRaw)
	m.running--
	if len(m.replay) > 0 && m.replay[0] == j {
		m.replay = m.replay[1:]
	}
	if m.queued > 0 {
		m.signal() // a worker may be parked behind the replay head
	}
	m.mu.Unlock()
	j.journal.Event("job_end", obs.A("state", state))
}

// settleLocked moves j to a terminal state: the log entry is persisted
// first and only then is the state published and done closed, so a job
// any reader has seen terminal is terminal after a crash too, and a
// history eviction that follows publication cannot be undone by a late
// write. The lock is dropped across the fsync; j.ending marks that
// window so a concurrent cancel treats the outcome as decided. Caller
// holds the lock and holds it again on return.
func (m *jobManager) settleLocked(j *job, state, errMsg string, respRaw []byte) {
	j.ending = state
	e := m.entryLocked(j)
	if e != nil {
		e.State, e.ErrMsg, e.Resp = state, errMsg, respRaw
	}
	m.mu.Unlock()
	m.persist(e)
	m.mu.Lock()
	j.state, j.errMsg, j.respRaw = state, errMsg, respRaw
	m.active[j.tenant]--
	switch state {
	case JobDone:
		m.s.jobsCompleted.Inc()
	case JobFailed:
		m.s.jobsFailed.Inc()
	default:
		m.s.jobsCanceled.Inc()
	}
	close(j.done)
}

// cancelJob cancels a job. A queued job leaves its queue and is terminal
// as soon as its canceled entry is written; a running one is flagged and
// its context canceled — the worker marks it canceled when it gets
// control back. Terminal jobs, and jobs whose terminal entry is being
// written, answer 409: there is nothing left to cancel.
func (m *jobManager) cancelJob(id string) (JobStatus, int, string) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return JobStatus{}, http.StatusNotFound, "no such job " + id
	}
	if terminal(j.state) || j.ending != "" {
		// Terminal, or its terminal entry is being written: decided.
		st := j.statusLocked()
		if j.ending != "" {
			st.State = j.ending
		}
		m.mu.Unlock()
		return st, http.StatusConflict, "job " + id + " already " + st.State
	}
	j.canceled = true
	if j.cancel != nil {
		j.cancel() // ends a worker's wait for a run slot, or the run itself
	}
	if j.state == JobQueued {
		m.removeQueuedLocked(j)
		m.settleLocked(j, JobCanceled, "", nil)
		m.queued-- // after the write, so a drain waits for it
		m.signal() // a worker may be parked behind a canceled replay head
	}
	st := j.statusLocked()
	st.State = JobCanceled // the client's view: this job will not publish
	m.mu.Unlock()
	j.journal.Event("job_cancel", obs.A("tenant", j.tenant))
	return st, 0, ""
}

// removeQueuedLocked unlinks a queued job from the replay list or its
// tenant FIFO and, when that empties the FIFO, retires the tenant from
// the scheduling ring.
func (m *jobManager) removeQueuedLocked(j *job) {
	for i := range m.replay {
		if m.replay[i] == j {
			m.replay = append(m.replay[:i], m.replay[i+1:]...)
			return
		}
	}
	q := m.queues[j.tenant]
	for i := range q {
		if q[i] == j {
			q = append(q[:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(m.queues, j.tenant)
		for i := range m.ring {
			if m.ring[i] == j.tenant {
				m.ring = append(m.ring[:i], m.ring[i+1:]...)
				if m.next > i {
					m.next--
				}
				break
			}
		}
	} else {
		m.queues[j.tenant] = q
	}
}

// get returns a point-in-time status.
func (m *jobManager) get(id string) (JobStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	// A cancel-flagged running job still reports "running": the state
	// only flips to canceled when the worker actually relinquishes it,
	// so "terminal" on the wire always means "no longer consuming a
	// worker".
	return j.statusLocked(), true
}

// result returns the finished response's encoded body, or an HTTP status
// explaining why there is none (yet).
func (m *jobManager) result(id string) ([]byte, int, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, http.StatusNotFound, "no such job " + id
	}
	switch {
	case j.state == JobDone:
		return j.respRaw, 0, ""
	case j.state == JobFailed:
		return nil, http.StatusInternalServerError, j.errMsg
	case j.state == JobCanceled || j.canceled:
		return nil, http.StatusConflict, "job " + id + " canceled"
	default:
		return nil, http.StatusConflict, "job " + id + " is " + j.state + ", retry later"
	}
}

// counts samples (queued, running) for the metrics gauges.
func (m *jobManager) counts() (int, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queued, m.running
}

// StopJobs drains the job subsystem: new submissions are refused with
// 503, already-accepted jobs (queued and running) are allowed to finish
// — accepted work is promised work — and the call returns once every
// job is terminal and the workers have exited. If ctx expires first,
// everything still pending is canceled and ctx.Err() is returned;
// finished results remain fetchable either way.
func (s *Server) StopJobs(ctx context.Context) error {
	m := s.jobs
	m.mu.Lock()
	m.stopping = true
	m.mu.Unlock()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		queued, running := m.counts()
		if queued == 0 && running == 0 {
			close(m.stop)
			m.wg.Wait()
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			m.cancelAll()
			close(m.stop)
			return ctx.Err()
		}
	}
}

// cancelAll cancels every non-terminal job (drain deadline expired).
func (m *jobManager) cancelAll() {
	m.mu.Lock()
	ids := make([]string, 0, len(m.jobs))
	for id, j := range m.jobs {
		if !terminal(j.state) {
			ids = append(ids, id)
		}
	}
	m.mu.Unlock()
	for _, id := range ids {
		m.cancelJob(id)
	}
}

// tenantOf extracts the sanitized tenant name from a request.
func tenantOf(r *http.Request) string {
	if t := sanitizeRequestID(r.Header.Get(TenantHeader)); t != "" {
		return t
	}
	return "default"
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeFailure(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req AnalyzeRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	if err := validateSources(req.Sources); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := s.buildOptions(req.Options); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tenant := tenantOf(r)
	id := "job-" + strconv.FormatInt(s.nextJobID.Add(1), 10)
	var journal *obs.Journal
	if s.cfg.JournalWriter != nil {
		journal = obs.NewJournal(s.cfg.JournalWriter, id)
	}
	st, status, msg := s.jobs.submit(id, tenant, req, journal)
	if status != 0 {
		s.jobsRejected.Inc()
		s.writeFailure(w, status, msg)
		return
	}
	s.jobsSubmitted.Inc()
	journal.Event("job_submitted",
		obs.A("tenant", tenant),
		obs.A("units", strconv.Itoa(countUnits(req.Sources))))
	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %s", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobResult serves the finished analysis: the body bytes were
// encoded once at completion time with the same encoder as
// POST /v1/analyze, so a job's result is byte-identical to the
// synchronous answer for the same tree — before and after any restart.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	body, status, msg := s.jobs.result(r.PathValue("id"))
	if status != 0 {
		writeError(w, status, "%s", msg)
		return
	}
	writeRawJSON(w, http.StatusOK, body)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, status, msg := s.jobs.cancelJob(r.PathValue("id"))
	if status != 0 {
		writeError(w, status, "%s", msg)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
