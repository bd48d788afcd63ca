package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"deviant/internal/corpus"
	"deviant/internal/fault"
)

// postRaw sends bytes as-is, bypassing the JSON marshal in postJSON, so
// tests can inject malformed and truncated bodies.
func postRaw(t *testing.T, h http.Handler, path string, body []byte) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr, rr.Body.Bytes()
}

// Malformed and truncated bodies are client errors: 400, with a JSON
// error payload, never a 500 and never a hang.
func TestFaultMalformedBodies(t *testing.T) {
	s := New(Config{})
	valid, err := json.Marshal(AnalyzeRequest{Sources: svcSources()})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"not json", []byte("int main(void) { return 0; }")},
		{"wrong top-level type", []byte(`[1,2,3]`)},
		{"unknown field", []byte(`{"sauces":{"a.c":"int x;"}}`)},
		{"binary garbage", []byte{0x00, 0xff, 0x1f, 0x8b, 0x08}},
		{"truncated mid-object", valid[:len(valid)/2]},
		{"truncated mid-string", valid[:len(valid)-3]},
		{"trailing garbage ignored by decoder is still one object", []byte(`{"sources":{}}`)}, // empty sources → validation 400
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, path := range []string{"/v1/analyze", "/v1/diff"} {
				rr, body := postRaw(t, s, path, c.body)
				if rr.Code != http.StatusBadRequest {
					t.Fatalf("%s: status %d, want 400: %s", path, rr.Code, body)
				}
				var e map[string]string
				if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
					t.Fatalf("%s: error payload not JSON with error field: %s", path, body)
				}
			}
		})
	}
}

// A body over MaxBodyBytes is a distinct failure from malformed JSON and
// must get 413, on both POST endpoints, whether the oversized content is
// valid JSON or noise.
func TestFaultOversizedBody(t *testing.T) {
	s := New(Config{MaxBodyBytes: 4 << 10})
	big := AnalyzeRequest{Sources: map[string]string{
		"a.c": "int x = 0;" + strings.Repeat("/* pad */", 4<<10),
	}}
	for _, path := range []string{"/v1/analyze", "/v1/diff"} {
		rr, body := postJSON(t, s, path, big)
		if rr.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413: %s", path, rr.Code, body)
		}
	}
	// A body whose defect lies beyond the limit (an unterminated giant
	// string) hits the size cap before the parse error: 413, not 400.
	unterminated := append([]byte(`{"sources":{"a.c":"`), bytes.Repeat([]byte{'y'}, 8<<10)...)
	rr, body := postRaw(t, s, "/v1/analyze", unterminated)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized truncated body: status %d, want 413: %s", rr.Code, body)
	}
	// At exactly the limit the request is not oversized.
	exact := append([]byte(`{"sources":{"a.c":"`), bytes.Repeat([]byte{'x'}, 100)...)
	exact = append(exact, []byte(`"}}`)...)
	if int64(len(exact)) > 4<<10 {
		t.Fatalf("test fixture larger than limit")
	}
	rr, body = postRaw(t, s, "/v1/analyze", exact)
	if rr.Code != http.StatusOK {
		t.Fatalf("under-limit body: status %d, want 200: %s", rr.Code, body)
	}
}

// Requests racing drain mode: a hammer of concurrent analyze requests
// while the server flips draining on and off must only ever see the
// documented statuses, and the server must serve normally afterwards.
func TestFaultDrainRace(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, QueueDepth: 2})
	sources := svcSources()

	var wg sync.WaitGroup
	const hammers = 4
	const perHammer = 25
	statuses := make([][]int, hammers)
	for i := 0; i < hammers; i++ {
		i := i
		statuses[i] = make([]int, 0, perHammer)
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, _ := json.Marshal(AnalyzeRequest{Sources: sources})
			for j := 0; j < perHammer; j++ {
				req := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(buf))
				rr := httptest.NewRecorder()
				s.ServeHTTP(rr, req)
				statuses[i] = append(statuses[i], rr.Code)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 50; k++ {
			s.SetDraining(k%2 == 0)
		}
		s.SetDraining(false)
	}()
	wg.Wait()

	allowed := map[int]bool{
		http.StatusOK:                 true,
		http.StatusServiceUnavailable: true,
		http.StatusTooManyRequests:    true,
		http.StatusGatewayTimeout:     true,
	}
	for i, col := range statuses {
		for j, code := range col {
			if !allowed[code] {
				t.Fatalf("hammer %d request %d: unexpected status %d", i, j, code)
			}
		}
	}

	// Fully undrained, the server must be healthy and serve new work.
	if rr, body := getPath(t, s, "/healthz"); rr.Code != http.StatusOK {
		t.Fatalf("healthz after drain race: %d: %s", rr.Code, body)
	}
	analyze(t, s, sources)
}

// During drain every new analyze/diff gets a clean 503 JSON error — not
// a reset, not a 500 — and healthz reports not-ready.
func TestFaultDrainStatuses(t *testing.T) {
	s := New(Config{})
	s.SetDraining(true)
	for _, path := range []string{"/v1/analyze", "/v1/diff"} {
		var rr *httptest.ResponseRecorder
		var body []byte
		if path == "/v1/analyze" {
			rr, body = postJSON(t, s, path, AnalyzeRequest{Sources: svcSources()})
		} else {
			rr, body = postJSON(t, s, path, DiffRequest{OldSources: svcSources(), NewSources: svcSources()})
		}
		if rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s during drain: status %d, want 503: %s", path, rr.Code, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Fatalf("%s during drain: error payload not JSON: %s", path, body)
		}
	}
	if rr, _ := getPath(t, s, "/healthz"); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", rr.Code)
	}
	s.SetDraining(false)
	analyze(t, s, svcSources())
}

// The queue-full 429 must also hold while bodies are hostile: fill every
// slot, then hit the server with oversized and malformed bodies — the
// status must reflect the body fault (decode runs before admission), and
// releasing the slots restores service.
func TestFaultBackpressureWithHostileBodies(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1, MaxBodyBytes: 4 << 10})
	// Occupy all admission slots directly, as TestBackpressure does.
	for i := 0; i < cap(s.slots); i++ {
		s.slots <- struct{}{}
	}
	rr, body := postJSON(t, s, "/v1/analyze", AnalyzeRequest{Sources: svcSources()})
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429: %s", rr.Code, body)
	}
	if rr, _ := postRaw(t, s, "/v1/analyze", []byte("not json")); rr.Code != http.StatusBadRequest {
		t.Fatalf("malformed body under backpressure: status %d, want 400", rr.Code)
	}
	huge := fmt.Sprintf(`{"sources":{"a.c":%q}}`, strings.Repeat("y", 8<<10))
	if rr, _ := postRaw(t, s, "/v1/analyze", []byte(huge)); rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body under backpressure: status %d, want 413", rr.Code)
	}
	for i := 0; i < cap(s.slots); i++ {
		<-s.slots
	}
	analyze(t, s, svcSources())
}

// 429 (queue full) and 503 (draining) carry a Retry-After hint derived
// from queue pressure; client-fault statuses (400) do not.
func TestFaultRetryAfter(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	for i := 0; i < cap(s.slots); i++ {
		s.slots <- struct{}{}
	}
	rr, body := postJSON(t, s, "/v1/analyze", AnalyzeRequest{Sources: svcSources()})
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429: %s", rr.Code, body)
	}
	checkRetryAfter := func(rr *httptest.ResponseRecorder, where string) {
		t.Helper()
		h := rr.Header().Get("Retry-After")
		if h == "" {
			t.Fatalf("%s: no Retry-After header", where)
		}
		secs, err := strconv.Atoi(h)
		if err != nil || secs < 1 || secs > 30 {
			t.Fatalf("%s: Retry-After %q not an int in [1,30]", where, h)
		}
	}
	checkRetryAfter(rr, "429")
	for i := 0; i < cap(s.slots); i++ {
		<-s.slots
	}

	s.SetDraining(true)
	rr, _ = postJSON(t, s, "/v1/analyze", AnalyzeRequest{Sources: svcSources()})
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining analyze: status %d, want 503", rr.Code)
	}
	checkRetryAfter(rr, "draining 503")
	rr, _ = getPath(t, s, "/healthz")
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", rr.Code)
	}
	checkRetryAfter(rr, "healthz 503")
	s.SetDraining(false)

	// Client faults must not invite a retry of the same request.
	rr, _ = postRaw(t, s, "/v1/analyze", []byte("not json"))
	if rr.Code != http.StatusBadRequest || rr.Header().Get("Retry-After") != "" {
		t.Fatalf("400 carries Retry-After %q", rr.Header().Get("Retry-After"))
	}
}

// A panic inside a handler becomes a 500 JSON error carrying the request
// id, bumps the recovered-panics counter, and leaves the server fully
// able to serve the next request.
func TestFaultServicePanicRecovery(t *testing.T) {
	fault.Arm("service", "/v1/rules")
	defer fault.Reset()
	s := New(Config{})

	rr, body := getPath(t, s, "/v1/rules")
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("armed trap: status %d, want 500: %s", rr.Code, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], "request id r") {
		t.Fatalf("500 body missing request id: %s", body)
	}
	if got := s.panics.Value(); got != 1 {
		t.Fatalf("panics counter = %v, want 1", got)
	}

	fault.Reset()
	if rr, _ := getPath(t, s, "/v1/rules"); rr.Code != http.StatusOK {
		t.Fatalf("server did not survive the panic: %d", rr.Code)
	}
	analyze(t, s, svcSources())
}

// A panic in the run body (shared with the job workers, which have no
// ServeHTTP recovery above them) is contained to the request: 500 with
// a redacted cause, daemon alive.
func TestFaultWorkerPanicRecovery(t *testing.T) {
	fault.Arm("service-worker", "run")
	defer fault.Reset()
	s := New(Config{})

	rr, body := postJSON(t, s, "/v1/analyze", AnalyzeRequest{Sources: svcSources()})
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("worker trap: status %d, want 500: %s", rr.Code, body)
	}
	if !strings.Contains(string(body), "analysis worker panicked") {
		t.Fatalf("500 body missing worker-panic cause: %s", body)
	}
	if got := s.panics.Value(); got != 1 {
		t.Fatalf("panics counter = %v, want 1", got)
	}
	fault.Reset()
	analyze(t, s, svcSources())
}

// A pipeline-stage panic does NOT fail the request: core quarantines the
// unit and the response reports a degraded run with the quarantine
// records on the wire.
func TestFaultAnalyzeDegradedResponse(t *testing.T) {
	fault.Arm("frontend", "beta_grow")
	defer fault.Reset()
	s := New(Config{})

	resp := analyze(t, s, svcSources())
	if !resp.Degraded || len(resp.Quarantined) != 1 {
		t.Fatalf("degraded run not reported: degraded=%v quarantined=%v",
			resp.Degraded, resp.Quarantined)
	}
	q := resp.Quarantined[0]
	if q.Stage != "frontend" || q.Unit != "beta.c" {
		t.Fatalf("quarantine record %+v, want frontend beta.c", q)
	}
	// Quarantine metrics from the run surface on /metrics.
	_, body := getPath(t, s, "/metrics")
	if !strings.Contains(string(body), `deviant_quarantined_units_total{stage="frontend"} 1`) {
		t.Errorf("metrics missing quarantine counter:\n%s", body)
	}

	fault.Reset()
	clean := analyze(t, s, svcSources())
	if clean.Degraded || len(clean.Quarantined) != 0 {
		t.Fatalf("clean run still degraded: %+v", clean.Quarantined)
	}

	// A run that reaches its Timeout degrades the same way: analyze and
	// diff answer 200 with what they have, never 504, and give their run
	// slot back before answering.
	s = New(Config{Timeout: 20 * time.Millisecond})
	tree := corpus.Generate(corpus.Linux247()).Files
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/analyze", AnalyzeRequest{Sources: tree}},
		{"/v1/diff", DiffRequest{OldSources: tree, NewSources: tree}},
	} {
		rr, body := postJSON(t, s, c.path, c.body)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s past Timeout: status %d, want 200: %.200s", c.path, rr.Code, body)
		}
		var resp AnalyzeResponse
		if c.path == "/v1/diff" {
			var d DiffResponse
			if err := json.Unmarshal(body, &d); err != nil {
				t.Fatal(err)
			}
			resp = d.New
		} else if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Degraded || len(resp.Quarantined) == 0 {
			t.Fatalf("%s past Timeout not degraded: %+v", c.path, resp.Quarantined)
		}
		for _, q := range resp.Quarantined {
			if q.Cause != "deadline-exceeded" {
				t.Fatalf("%s past Timeout: record %+v, want deadline-exceeded", c.path, q)
			}
		}
		if len(s.run) != 0 || s.inflight.Value() != 0 {
			t.Fatalf("%s answered still holding a run slot", c.path)
		}
	}
}

// Config.CacheDir gives the daemon a persistent snapshot tier: a second
// server over the same directory serves the frontend warm from disk.
func TestFaultCacheDirPersistence(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{CacheDir: dir})
	r1 := analyze(t, s1, svcSources())
	if r1.Snapshot.UnitsParsed != 3 {
		t.Fatalf("cold fill: %+v", r1.Snapshot)
	}

	s2 := New(Config{CacheDir: dir})
	r2 := analyze(t, s2, svcSources())
	if r2.Snapshot.UnitsReused != 3 || r2.Snapshot.UnitsParsed != 0 {
		t.Fatalf("restarted daemon did not reuse from disk: %+v", r2.Snapshot)
	}
	warm, _ := json.Marshal(r2.Reports)
	cold, _ := json.Marshal(r1.Reports)
	if !bytes.Equal(warm, cold) {
		t.Errorf("disk-warm reports diverge from cold:\n%s\nvs\n%s", warm, cold)
	}
	if st := s2.Store().Stats(); st.DiskHits != 3 {
		t.Errorf("disk hits = %d, want 3: %+v", st.DiskHits, st)
	}

	// An unusable directory degrades to memory-only, not a dead server.
	s3 := New(Config{CacheDir: "/proc/definitely/not/writable"})
	if s3.Store().Persistent() {
		t.Error("store claims persistence over an unusable directory")
	}
	analyze(t, s3, svcSources())
}
