package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJobLogRoundTrip pins the on-disk format: entries survive a
// close/reopen cycle in submission order with every field intact.
func TestJobLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, entries, corrupt, err := openJobLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || corrupt != 0 {
		t.Fatalf("fresh dir: %d entries, %d corrupt", len(entries), corrupt)
	}
	want := []jobEntry{
		{ID: "job-2", Tenant: "acme", State: JobDone,
			Req:  AnalyzeRequest{Sources: map[string]string{"a.c": "int f();"}},
			Resp: []byte(`{"units":1}` + "\n")},
		{ID: "job-10", Tenant: "beta", State: JobQueued,
			Req: AnalyzeRequest{Sources: map[string]string{"b.c": "int g();"}}},
		{ID: "job-3", Tenant: "acme", State: JobFailed, ErrMsg: "boom"},
	}
	for i := range want {
		if err := l.write(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	_, got, corrupt, err := openJobLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Fatalf("clean log reported %d corrupt entries", corrupt)
	}
	// Numeric id order, not lexicographic: job-10 sorts after job-3.
	order := make([]string, len(got))
	for i := range got {
		order[i] = got[i].ID
	}
	if strings.Join(order, ",") != "job-2,job-3,job-10" {
		t.Fatalf("recovery order %v", order)
	}
	if got[0].Tenant != "acme" || !bytes.Equal(got[0].Resp, want[0].Resp) ||
		got[0].Req.Sources["a.c"] != "int f();" {
		t.Fatalf("round-tripped entry mangled: %+v", got[0])
	}
	if got[1].ErrMsg != "boom" {
		t.Fatalf("error message lost: %+v", got[1])
	}
}

// TestJobLogSweepsTornAndCorrupt pins the self-healing startup sweep: a
// temp file from a crashed writer, a bit-flipped entry, a truncated
// entry and a misnamed entry are all removed, and only they are — the
// valid entry survives.
func TestJobLogSweepsTornAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := openJobLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := jobEntry{ID: "job-1", Tenant: "t", State: JobQueued,
		Req: AnalyzeRequest{Sources: map[string]string{"a.c": "int f();"}}}
	if err := l.write(&good); err != nil {
		t.Fatal(err)
	}
	if err := l.write(&jobEntry{ID: "job-2", State: JobQueued}); err != nil {
		t.Fatal(err)
	}
	if err := l.write(&jobEntry{ID: "job-3", State: JobQueued}); err != nil {
		t.Fatal(err)
	}
	if err := l.write(&jobEntry{ID: "job-4", State: JobQueued}); err != nil {
		t.Fatal(err)
	}
	// Torn write: a temp file the crashed writer never renamed.
	if err := os.WriteFile(filepath.Join(dir, jobTmpPrefix+"xyz"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Bit flip inside job-2's payload.
	p2 := filepath.Join(dir, "job-2"+jobSuffix)
	raw, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(p2, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Truncation of job-3 mid-checksum.
	p3 := filepath.Join(dir, "job-3"+jobSuffix)
	if err := os.Truncate(p3, int64(len(jobMagic)+4)); err != nil {
		t.Fatal(err)
	}
	// job-4's entry renamed to a different id: name/content mismatch.
	if err := os.Rename(filepath.Join(dir, "job-4"+jobSuffix),
		filepath.Join(dir, "job-9"+jobSuffix)); err != nil {
		t.Fatal(err)
	}

	_, entries, corrupt, err := openJobLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].ID != "job-1" {
		t.Fatalf("survivors %+v, want only job-1", entries)
	}
	if corrupt != 3 {
		t.Fatalf("corrupt count %d, want 3", corrupt)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || left[0].Name() != "job-1"+jobSuffix {
		names := make([]string, len(left))
		for i := range left {
			names[i] = left[i].Name()
		}
		t.Fatalf("sweep left %v", names)
	}
}

// TestJobRecoveryDoneResultByteIdentical is the durability half of the
// tentpole contract: finish a job, then bring up a fresh server over the
// same job dir — the "crashed and restarted" daemon — and the result
// endpoint must serve the exact bytes it served before the restart.
func TestJobRecoveryDoneResultByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{JobDir: dir})
	st, rr := submitJob(t, s1, "acme", svcSources())
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.Bytes())
	}
	if got := waitJob(t, s1, st.ID); got.State != JobDone {
		t.Fatalf("job ended %+v, want done", got)
	}
	before := getJSON(t, s1, "/v1/jobs/"+st.ID+"/result", nil)
	if before.Code != http.StatusOK {
		t.Fatalf("result before restart: %d", before.Code)
	}

	s2 := New(Config{JobDir: dir}) // restart: same log, fresh process state
	var got JobStatus
	if rr := getJSON(t, s2, "/v1/jobs/"+st.ID, &got); rr.Code != http.StatusOK {
		t.Fatalf("status after restart: %d: %s", rr.Code, rr.Body.Bytes())
	}
	if got.State != JobDone || got.Tenant != "acme" {
		t.Fatalf("recovered status %+v, want done/acme", got)
	}
	after := getJSON(t, s2, "/v1/jobs/"+st.ID+"/result", nil)
	if after.Code != http.StatusOK {
		t.Fatalf("result after restart: %d", after.Code)
	}
	if !bytes.Equal(before.Body.Bytes(), after.Body.Bytes()) {
		t.Fatalf("result changed across restart\n--- before ---\n%s\n--- after ---\n%s",
			before.Body.Bytes(), after.Body.Bytes())
	}
}

// TestJobRecoveryRerunsInterruptedJobs covers the crash-mid-flight half:
// entries left in queued and running state (what a SIGKILL leaves
// behind) are re-admitted on startup, run to completion, and the re-run
// result is byte-identical to a never-interrupted run of the same tree
// at equal snapshot warmth. The id sequence also continues past the
// recovered ids, so fresh submissions never collide.
func TestJobRecoveryRerunsInterruptedJobs(t *testing.T) {
	// The uninterrupted reference: a cold server runs the tree once.
	ref := New(Config{})
	refSt, _ := submitJob(t, ref, "acme", svcSources())
	waitJob(t, ref, refSt.ID)
	want := getJSON(t, ref, "/v1/jobs/"+refSt.ID+"/result", nil)

	// Forge the crash remains: one job caught queued, one caught running.
	dir := t.TempDir()
	l, _, _, err := openJobLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := AnalyzeRequest{Sources: svcSources()}
	if err := l.write(&jobEntry{ID: "job-4", Tenant: "acme", State: JobQueued, Req: req}); err != nil {
		t.Fatal(err)
	}
	if err := l.write(&jobEntry{ID: "job-7", Tenant: "beta", State: JobRunning, Req: req}); err != nil {
		t.Fatal(err)
	}

	s := New(Config{JobDir: dir})
	for _, id := range []string{"job-4", "job-7"} {
		if got := waitJob(t, s, id); got.State != JobDone {
			t.Fatalf("recovered %s ended %+v, want done", id, got)
		}
	}
	// job-4 ran on a cold store like the reference; job-7 reuses its
	// snapshots, so only job-4 is byte-comparable to the reference.
	res := getJSON(t, s, "/v1/jobs/job-4/result", nil)
	if !bytes.Equal(res.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("re-run result differs from uninterrupted run\n--- rerun ---\n%s\n--- ref ---\n%s",
			res.Body.Bytes(), want.Body.Bytes())
	}

	st, rr := submitJob(t, s, "acme", svcSources())
	if rr.Code != http.StatusAccepted {
		t.Fatalf("post-recovery submit: %d", rr.Code)
	}
	if st.ID != "job-8" {
		t.Fatalf("id sequence did not continue past recovery: got %s, want job-8", st.ID)
	}
	// Let job-8 settle before the job dir is removed under it.
	waitJob(t, s, st.ID)
}

// TestJobRecoveryTerminalStates pins that failed and canceled jobs keep
// answering with their terminal state after a restart instead of being
// re-run or forgotten.
func TestJobRecoveryTerminalStates(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := openJobLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.write(&jobEntry{ID: "job-1", Tenant: "t", State: JobFailed, ErrMsg: "checker panic"}); err != nil {
		t.Fatal(err)
	}
	if err := l.write(&jobEntry{ID: "job-2", Tenant: "t", State: JobCanceled}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{JobDir: dir})
	var st JobStatus
	getJSON(t, s, "/v1/jobs/job-1", &st)
	if st.State != JobFailed || st.Error != "checker panic" {
		t.Fatalf("recovered failed job: %+v", st)
	}
	if rr := getJSON(t, s, "/v1/jobs/job-1/result", nil); rr.Code != http.StatusInternalServerError {
		t.Fatalf("failed job result: %d, want 500", rr.Code)
	}
	getJSON(t, s, "/v1/jobs/job-2", &st)
	if st.State != JobCanceled {
		t.Fatalf("recovered canceled job: %+v", st)
	}
	if rr := getJSON(t, s, "/v1/jobs/job-2/result", nil); rr.Code != http.StatusConflict {
		t.Fatalf("canceled job result: %d, want 409", rr.Code)
	}
}

// TestJobLogEvictionRemovesFiles keeps the log bounded with retention:
// when JobHistory evicts a terminal job from memory, its file goes too —
// otherwise every restart would resurrect jobs the server had forgotten.
func TestJobLogEvictionRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{JobDir: dir, JobHistory: 1})
	first, _ := submitJob(t, s, "acme", svcSources())
	waitJob(t, s, first.ID)
	second, _ := submitJob(t, s, "acme", svcSources())
	waitJob(t, s, second.ID)
	// Submitting the second job evicted the finished first one.
	if rr := getJSON(t, s, "/v1/jobs/"+first.ID, nil); rr.Code != http.StatusNotFound {
		t.Fatalf("evicted job still answers %d", rr.Code)
	}
	if _, err := os.Stat(filepath.Join(dir, first.ID+jobSuffix)); !os.IsNotExist(err) {
		t.Fatalf("evicted job's log entry still on disk (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, second.ID+jobSuffix)); err != nil {
		t.Fatalf("retained job's log entry missing: %v", err)
	}
}

// TestJobRecoveryReplaysInIDOrder pins the replay contract: recovered
// queued/running jobs re-run one at a time in id order — not tenant
// round-robin — and a job submitted after the restart waits for the
// whole replay. One at a time shows in the results: only the first
// replayed job parses the tree; every later run finds it in the store.
func TestJobRecoveryReplaysInIDOrder(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := openJobLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := AnalyzeRequest{Sources: svcSources()}
	for _, e := range []jobEntry{
		{ID: "job-5", Tenant: "beta", State: JobRunning, Req: req},
		{ID: "job-2", Tenant: "acme", State: JobQueued, Req: req},
		{ID: "job-3", Tenant: "acme", State: JobQueued, Req: req},
	} {
		if err := l.write(&e); err != nil {
			t.Fatal(err)
		}
	}

	var journal lockedBuffer
	s := New(Config{JobDir: dir, JournalWriter: &journal})
	fresh, rr := submitJob(t, s, "gamma", svcSources())
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.Bytes())
	}
	ids := []string{"job-2", "job-3", "job-5", fresh.ID}
	for i, id := range ids {
		if got := waitJob(t, s, id); got.State != JobDone {
			t.Fatalf("%s ended %+v, want done", id, got)
		}
		var resp AnalyzeResponse
		getJSON(t, s, "/v1/jobs/"+id+"/result", &resp)
		if cold := resp.Snapshot.UnitsParsed == 3; cold != (i == 0) {
			t.Errorf("%s: snapshot %+v; only the first replayed job may run cold", id, resp.Snapshot)
		}
	}

	var starts []string
	for _, line := range strings.Split(strings.TrimSpace(journal.String()), "\n") {
		var ev struct {
			Run   string `json:"run"`
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("journal line not JSON: %s", line)
		}
		if ev.Event == "job_start" {
			starts = append(starts, ev.Run)
		}
	}
	if strings.Join(starts, ",") != strings.Join(ids, ",") {
		t.Fatalf("jobs started in order %v, want %v", starts, ids)
	}
}
