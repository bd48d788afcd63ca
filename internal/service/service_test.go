package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"deviant"
)

const svcHeader = `
#define NULL 0
struct dev { int count; int *buf; struct lock *lk; };
struct lock { int held; };
void *kmalloc(int n);
void kfree(void *p);
void printk(const char *fmt, ...);
void spin_lock(struct lock *l);
void spin_unlock(struct lock *l);
`

// svcSources mirrors the core incremental corpus: cross-unit statistical
// signal so editing one unit perturbs global ranking.
func svcSources() map[string]string {
	return map[string]string{
		"include/kernel.h": svcHeader,
		"alpha.c": `
#include "kernel.h"
int alpha_init(struct dev *d) {
	int *b = kmalloc(16);
	if (!b)
		return -1;
	b[0] = 0;
	return 0;
}
int alpha_reset(struct dev *d) {
	if (d == NULL)
		printk("reset %d\n", d->count);
	return 0;
}
`,
		"beta.c": `
#include "kernel.h"
int beta_grow(struct dev *d, int n) {
	int *b = kmalloc(n);
	if (!b)
		return -1;
	b[0] = 0;
	return 0;
}
void beta_work(struct dev *d) {
	spin_lock(d->lk);
	d->count++;
	spin_unlock(d->lk);
}
`,
		"gamma.c": `
#include "kernel.h"
int gamma_open(struct dev *d) {
	int *b = kmalloc(8);
	b[0] = 1;
	return 0;
}
`,
	}
}

func postJSON(t *testing.T, h http.Handler, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(buf))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr, rr.Body.Bytes()
}

func getPath(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr, rr.Body.Bytes()
}

func analyze(t *testing.T, s *Server, sources map[string]string) AnalyzeResponse {
	t.Helper()
	rr, body := postJSON(t, s, "/v1/analyze", AnalyzeRequest{Sources: sources})
	if rr.Code != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", rr.Code, body)
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("analyze: %v\n%s", err, body)
	}
	return resp
}

// TestAnalyzeIncrementalDeterminism is the HTTP-level acceptance pin:
// after editing 1 of 3 units, a warm server re-parses only that unit and
// its ranked reports are byte-identical to a cold server's.
func TestAnalyzeIncrementalDeterminism(t *testing.T) {
	warm := New(Config{})

	v1 := svcSources()
	r1 := analyze(t, warm, v1)
	if r1.Snapshot.UnitsParsed != 3 || r1.Snapshot.UnitsReused != 0 {
		t.Fatalf("cold fill: %+v, want 3 parsed / 0 reused", r1.Snapshot)
	}
	if r1.Units != 3 || r1.Functions != 5 || r1.ParseErrors != 0 {
		t.Fatalf("summary: %+v", r1)
	}
	if len(r1.Reports) == 0 {
		t.Fatal("corpus should produce reports")
	}

	v2 := svcSources()
	v2["gamma.c"] = strings.Replace(v2["gamma.c"],
		"int *b = kmalloc(8);", "int *b = kmalloc(8);\n\tif (!b)\n\t\treturn -1;", 1)
	r2 := analyze(t, warm, v2)
	if r2.Snapshot.UnitsReused != 2 || r2.Snapshot.UnitsParsed != 1 {
		t.Fatalf("warm run: %+v, want 2 reused / 1 parsed", r2.Snapshot)
	}
	if r2.Snapshot.GraphsReused == 0 {
		t.Fatalf("warm run rebuilt every graph: %+v", r2.Snapshot)
	}

	cold := analyze(t, New(Config{}), v2)
	warmReports, _ := json.Marshal(r2.Reports)
	coldReports, _ := json.Marshal(cold.Reports)
	if !bytes.Equal(warmReports, coldReports) {
		t.Errorf("warm reports diverge from cold run:\n--- warm\n%s\n--- cold\n%s",
			warmReports, coldReports)
	}

	v1Reports, _ := json.Marshal(r1.Reports)
	if bytes.Equal(v1Reports, warmReports) {
		t.Error("editing gamma.c did not change reports; corpus too weak")
	}
}

func TestAnalyzeOptions(t *testing.T) {
	s := New(Config{})
	base := analyze(t, s, svcSources())

	rr, body := postJSON(t, s, "/v1/analyze", AnalyzeRequest{
		Sources: svcSources(),
		Options: RequestOptions{Checkers: "null"},
	})
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, body)
	}
	var sub AnalyzeResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if len(sub.Reports) >= len(base.Reports) {
		t.Errorf("checkers=null should shrink the report list: %d vs %d",
			len(sub.Reports), len(base.Reports))
	}
	for _, r := range sub.Reports {
		if !strings.HasPrefix(r.Checker, "null") {
			t.Errorf("checkers=null leaked a %s report", r.Checker)
		}
	}

	rr, body = postJSON(t, s, "/v1/analyze", AnalyzeRequest{
		Sources: svcSources(),
		Options: RequestOptions{Top: 1},
	})
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, body)
	}
	var topped AnalyzeResponse
	if err := json.Unmarshal(body, &topped); err != nil {
		t.Fatal(err)
	}
	if len(topped.Reports) != 1 {
		t.Errorf("top=1: got %d reports", len(topped.Reports))
	}
}

func TestDiffEndpoint(t *testing.T) {
	s := New(Config{})
	oldSrc := svcSources()
	newSrc := svcSources()
	newSrc["alpha.c"] = strings.Replace(newSrc["alpha.c"],
		"\tif (d == NULL)\n\t\tprintk", "\tprintk", 1)

	rr, body := postJSON(t, s, "/v1/diff", DiffRequest{
		OldSources: oldSrc, NewSources: newSrc,
	})
	if rr.Code != http.StatusOK {
		t.Fatalf("diff: status %d: %s", rr.Code, body)
	}
	var resp DiffResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.New.Units != 3 || len(resp.New.Reports) == 0 {
		t.Errorf("diff new-version summary missing: %+v", resp.New)
	}
	// Both versions flowed through the shared snapshot store: the second
	// analysis reuses the two untouched units.
	if resp.New.Snapshot.UnitsReused != 2 {
		t.Errorf("diff new run should reuse 2 units from the old run: %+v", resp.New.Snapshot)
	}
}

// rulesSources adds shared state guarded by one lock to svcSources, plus
// a second lock that guards nothing shared: most (variable, lock) pairs
// of the tree have no example, so /v1/rules must leave them out.
func rulesSources() map[string]string {
	srcs := svcSources()
	srcs["delta.c"] = `
#include "kernel.h"
struct lock delta_lock, delta_aux;
int delta_count, delta_seen;
void delta_inc(void) {
	spin_lock(&delta_lock);
	delta_count++;
	spin_unlock(&delta_lock);
}
void delta_dec(void) {
	spin_lock(&delta_lock);
	delta_count--;
	spin_unlock(&delta_lock);
}
void delta_peek(void) {
	delta_seen = delta_count;
}
int delta_aux_op(int n) {
	int t;
	spin_lock(&delta_aux);
	t = n + 1;
	spin_unlock(&delta_aux);
	return t;
}
`
	return srcs
}

// getRules fetches and decodes GET /v1/rules.
func getRules(t *testing.T, s *Server) RulesResponse {
	t.Helper()
	rr, body := getPath(t, s, "/v1/rules")
	if rr.Code != http.StatusOK {
		t.Fatalf("rules: status %d", rr.Code)
	}
	var resp RulesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRulesEndpoint pins GET /v1/rules: it serves the latest analysis's
// derived rules, whether a sync analyze or a job produced them — every
// pair, can-fail and lock binding of that run and nothing else, so no
// lock rule lacks an example.
func TestRulesEndpoint(t *testing.T) {
	s := New(Config{})
	if empty := getRules(t, s); empty.Analysis != 0 || empty.Rules == nil || len(empty.Rules) != 0 {
		t.Errorf("rules before any analysis: %+v", empty)
	}

	srcs := rulesSources()
	opts, err := s.buildOptions(RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Snapshot = nil
	ref, err := deviant.Analyze(srcs, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantRules := len(ref.Pairs) + len(ref.CanFail) + len(ref.LockBindings)

	check := func(resp RulesResponse, analysis int64) {
		t.Helper()
		if resp.Analysis != analysis {
			t.Errorf("analysis id = %d, want %d", resp.Analysis, analysis)
		}
		if len(resp.Rules) != wantRules {
			t.Errorf("%d rules, want pairs+can-fail+lock bindings = %d", len(resp.Rules), wantRules)
		}
		var canFail, lock bool
		for _, r := range resp.Rules {
			switch {
			case r.Kind == "can-fail" && r.A == "kmalloc":
				canFail = true
				if r.Checks == 0 {
					t.Errorf("can-fail kmalloc has no evidence: %+v", r)
				}
			case r.Kind == "lock":
				lock = lock || (r.A == "delta_lock" && r.B == "delta_count")
				if r.Examples == 0 {
					t.Errorf("lock rule without an example: %+v", r)
				}
			}
		}
		if !canFail || !lock {
			t.Errorf("derived rules missing can-fail kmalloc or delta_lock protects delta_count: %+v", resp.Rules)
		}
	}

	analyze(t, s, srcs)
	check(getRules(t, s), 1)

	st, rr := submitJob(t, s, "acme", srcs)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.Bytes())
	}
	if got := waitJob(t, s, st.ID); got.State != JobDone {
		t.Fatalf("job ended %+v, want done", got)
	}
	check(getRules(t, s), 2)
}

func TestBackpressure(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	// Fill both admission slots (one running, one queued).
	s.slots <- struct{}{}
	s.slots <- struct{}{}

	rr, body := postJSON(t, s, "/v1/analyze", AnalyzeRequest{Sources: svcSources()})
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429: %s", rr.Code, body)
	}
	if s.rejected.Value() != 1 {
		t.Errorf("rejected counter = %v, want 1", s.rejected.Value())
	}
	<-s.slots
	<-s.slots

	if got := analyze(t, s, svcSources()); got.Units != 3 {
		t.Errorf("after drain, analyze should succeed: %+v", got)
	}
}

func TestQueueTimeout(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1, Timeout: 50 * time.Millisecond})
	// Saturate the run slots so the next request waits in queue forever.
	s.run <- struct{}{}

	rr, body := postJSON(t, s, "/v1/analyze", AnalyzeRequest{Sources: svcSources()})
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("queued past timeout: status %d, want 504: %s", rr.Code, body)
	}
	if s.timeouts.Value() == 0 {
		t.Error("timeout counter not incremented")
	}
	<-s.run
}

func TestDrainRefusesNewWork(t *testing.T) {
	s := New(Config{})
	rr, _ := getPath(t, s, "/healthz")
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rr.Code)
	}

	s.SetDraining(true)
	rr, _ = getPath(t, s, "/healthz")
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: status %d, want 503", rr.Code)
	}
	rr, body := postJSON(t, s, "/v1/analyze", AnalyzeRequest{Sources: svcSources()})
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("draining analyze: status %d, want 503: %s", rr.Code, body)
	}

	s.SetDraining(false)
	if got := analyze(t, s, svcSources()); got.Units != 3 {
		t.Errorf("undrained analyze should succeed: %+v", got)
	}
}

func TestMetrics(t *testing.T) {
	s := New(Config{})
	analyze(t, s, svcSources())
	analyze(t, s, svcSources()) // warm: all units reused

	rr, body := getPath(t, s, "/metrics")
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rr.Code)
	}
	out := string(body)
	for _, want := range []string{
		// Daemon counters with HELP/TYPE metadata.
		"# HELP deviantd_requests_total ",
		"# TYPE deviantd_requests_total counter",
		"deviantd_requests_total 2",
		"deviantd_snapshot_unit_hits 3",
		"deviantd_snapshot_unit_misses 3",
		"deviantd_snapshot_units 3",
		"# TYPE deviantd_queue_depth gauge",
		"deviantd_queue_depth 0",
		// Per-endpoint request latency histogram: both analyze requests
		// must land in some bucket and the +Inf bucket must equal the
		// request count.
		"# TYPE deviantd_request_seconds histogram",
		`deviantd_request_seconds_bucket{endpoint="analyze",le="+Inf"} 2`,
		`deviantd_request_seconds_count{endpoint="analyze"} 2`,
		// Per-run pipeline metrics folded in via Result.RecordMetrics.
		"# TYPE deviant_checker_seconds_total counter",
		`deviant_stage_seconds_total{stage="frontend"}`,
		"# TYPE deviant_report_z histogram",
		"deviant_runs_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestHealthzBuildInfo pins the /healthz body shape: liveness status plus
// the binary's build identity.
func TestHealthzBuildInfo(t *testing.T) {
	s := New(Config{})
	rr, body := getPath(t, s, "/healthz")
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rr.Code)
	}
	var resp struct {
		Status string `json:"status"`
		Build  struct {
			Version   string `json:"version"`
			GoVersion string `json:"go_version"`
		} `json:"build"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("healthz body: %v\n%s", err, body)
	}
	if resp.Status != "ok" {
		t.Errorf("status = %q, want ok", resp.Status)
	}
	if resp.Build.GoVersion == "" {
		t.Errorf("build info missing go_version: %s", body)
	}
}

// TestAnalyzeTrace pins the ?trace=1 contract: the response embeds a
// Chrome trace-event JSON document with spans for every pipeline stage
// and the request span carrying this request's ID.
func TestAnalyzeTrace(t *testing.T) {
	s := New(Config{})
	rr, body := postJSON(t, s, "/v1/analyze?trace=1", AnalyzeRequest{Sources: svcSources()})
	if rr.Code != http.StatusOK {
		t.Fatalf("analyze?trace=1: status %d: %s", rr.Code, body)
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Trace) == 0 {
		t.Fatal("trace=1 response has no trace")
	}
	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(resp.Trace, &trace); err != nil {
		t.Fatalf("embedded trace is not valid trace-event JSON: %v", err)
	}
	names := map[string]bool{}
	var reqID string
	for _, ev := range trace.TraceEvents {
		names[ev.Name] = true
		if ev.Name == "request" {
			reqID = ev.Args["id"]
		}
	}
	for _, want := range []string{"request", "analyze", "frontend", "unit", "semantic", "cfg", "checker"} {
		if !names[want] {
			t.Errorf("trace missing %q span; got %v", want, names)
		}
	}
	if !strings.HasPrefix(reqID, "r") {
		t.Errorf("request span id = %q, want r-prefixed request id", reqID)
	}

	// An untraced request must not pay for or return a trace.
	plain := analyze(t, s, svcSources())
	if len(plain.Trace) != 0 {
		t.Errorf("untraced response carries a trace: %s", plain.Trace)
	}
}

// TestRequestLogging pins the structured log contract: one JSON line per
// request with id, method, path, status, and duration.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	analyze(t, s, svcSources())
	getPath(t, s, "/healthz")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2:\n%s", len(lines), buf.String())
	}
	var entry struct {
		Msg    string  `json:"msg"`
		ID     string  `json:"id"`
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Status int     `json:"status"`
		DurMS  float64 `json:"dur_ms"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, lines[0])
	}
	if entry.Msg != "request" || entry.Method != "POST" || entry.Path != "/v1/analyze" ||
		entry.Status != http.StatusOK || !strings.HasPrefix(entry.ID, "r") {
		t.Errorf("unexpected request log entry: %+v", entry)
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		name string
		path string
		body any
	}{
		{"no sources", "/v1/analyze", AnalyzeRequest{}},
		{"no units", "/v1/analyze", AnalyzeRequest{Sources: map[string]string{"a.h": "int x;"}}},
		{"bad checker", "/v1/analyze", AnalyzeRequest{
			Sources: svcSources(), Options: RequestOptions{Checkers: "nope"}}},
		{"bad p0", "/v1/analyze", AnalyzeRequest{
			Sources: svcSources(), Options: RequestOptions{P0: 1.5}}},
		{"diff missing old", "/v1/diff", DiffRequest{NewSources: svcSources()}},
	}
	for _, tc := range cases {
		rr, body := postJSON(t, s, tc.path, tc.body)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, rr.Code, body)
		}
	}

	req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(`{"sources": 5}`))
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", rr.Code)
	}
}

func TestWorkerBudgetClamp(t *testing.T) {
	s := New(Config{MaxWorkers: 4})
	for _, tc := range []struct{ req, want int }{
		{0, 4}, {2, 2}, {4, 4}, {64, 4},
	} {
		opts, err := s.buildOptions(RequestOptions{Workers: tc.req})
		if err != nil {
			t.Fatal(err)
		}
		if opts.Workers != tc.want {
			t.Errorf("workers=%d: clamped to %d, want %d", tc.req, opts.Workers, tc.want)
		}
	}
}

func TestAdmitReleasesOnTimeout(t *testing.T) {
	// A request that times out while queued must give back its queue slot.
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	s.run <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if release, status, _ := s.admit(ctx); release != nil {
		t.Fatalf("admit should have timed out, got status %d", status)
	}
	if len(s.slots) != 0 {
		t.Errorf("timed-out admit leaked a queue slot: %d held", len(s.slots))
	}
	<-s.run

	// And a successful admit's release is idempotent.
	release, _, _ := s.admit(context.Background())
	if release == nil {
		t.Fatal("admit should succeed on an idle server")
	}
	release()
	release()
	if len(s.run) != 0 || len(s.slots) != 0 {
		t.Errorf("release leaked tokens: run=%d slots=%d", len(s.run), len(s.slots))
	}
}

func TestConcurrentAnalyses(t *testing.T) {
	// Hammer a shared server from several goroutines; with -race this
	// doubles as the data-race check on the shared snapshot store.
	s := New(Config{MaxConcurrent: 4, QueueDepth: 16})
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			src := svcSources()
			src["extra.c"] = fmt.Sprintf(
				"#include \"kernel.h\"\nint extra_%d(struct dev *d) { return d->count + %d; }\n", i%3, i%3)
			rr, body := postJSON(t, s, "/v1/analyze", AnalyzeRequest{Sources: src})
			if rr.Code != http.StatusOK {
				done <- fmt.Errorf("status %d: %s", rr.Code, body)
				return
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}
