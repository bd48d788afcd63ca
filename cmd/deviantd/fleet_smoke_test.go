package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"deviant"
	"deviant/internal/dist"
)

// Two more units alongside smokeSrc so a fleet has something to shard:
// the same allocator and lock conventions, spread across files.
const fleetBeta = `
#include "kernel.h"
int beta_fill(int n) {
	struct buf *b = kmalloc(n);
	if (!b)
		return -1;
	b->len = n;
	return 0;
}
int beta_drain(struct buf *b) {
	if (!b)
		return -1;
	return b->len;
}
`

const fleetGamma = `
#include "kernel.h"
int gamma_push(int n) {
	struct buf *b = kmalloc(n);
	if (!b)
		return -1;
	b->len = n;
	return 0;
}
int gamma_peek(struct buf *b) {
	printk("peek %d\n", b->len);
	return b->len;
}
`

func fleetCorpus() map[string]string {
	return map[string]string{
		"drv.c":            smokeSrc,
		"beta.c":           fleetBeta,
		"gamma.c":          fleetGamma,
		"include/kernel.h": smokeHeader,
	}
}

// freeAddr reserves then releases one loopback port.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startDaemon boots one deviantd and waits for /healthz.
func startDaemon(t *testing.T, bin, addr string, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{"-addr", addr}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	for i := 0; i < 150; i++ {
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("daemon on %s did not come up", addr)
	return nil
}

// TestFleetSmoke is `make fleet-smoke`: boot 3 workers and 1
// coordinator as separate processes, run the corpus through the fleet
// cold and warm, and require the ranked reports to match the CLI bit
// for bit. Then kill one worker mid-fleet and require the re-scattered
// run to stay byte-identical — a dead worker costs latency, not
// correctness — and finally drain the coordinator cleanly.
func TestFleetSmoke(t *testing.T) {
	tmp := t.TempDir()
	daemon := buildBinary(t, tmp, "deviant/cmd/deviantd")
	cli := buildBinary(t, tmp, "deviant/cmd/deviant")

	corpus := filepath.Join(tmp, "corpus")
	for name, content := range fleetCorpus() {
		path := filepath.Join(corpus, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cliOut, err := exec.Command(cli, "-json", corpus).Output()
	if err != nil {
		t.Fatalf("deviant -json: %v", err)
	}
	var golden []json.RawMessage
	sc := bufio.NewScanner(bytes.NewReader(cliOut))
	sc.Scan() // summary line
	for sc.Scan() {
		golden = append(golden, append(json.RawMessage(nil), sc.Bytes()...))
	}
	if len(golden) == 0 {
		t.Fatal("CLI found no reports in the fleet corpus")
	}

	workers := make([]*exec.Cmd, 3)
	urls := make([]string, 3)
	for i := range workers {
		addr := freeAddr(t)
		urls[i] = "http://" + addr
		workers[i] = startDaemon(t, daemon, addr, "-role", "worker")
	}
	coordAddr := freeAddr(t)
	journalPath := filepath.Join(tmp, "runs.jsonl")
	coord := startDaemon(t, daemon, coordAddr,
		"-role", "coordinator", "-workers-list", strings.Join(urls, ","),
		"-journal", journalPath, "-probe", "250ms")

	body, err := json.Marshal(map[string]any{"sources": fleetCorpus()})
	if err != nil {
		t.Fatal(err)
	}
	post := func() (reports []json.RawMessage, degraded bool, snapshot struct {
		UnitsReused int `json:"units_reused"`
		UnitsParsed int `json:"units_parsed"`
	}) {
		t.Helper()
		resp, err := http.Post("http://"+coordAddr+"/v1/analyze",
			"application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var payload struct {
			Degraded bool              `json:"degraded"`
			Reports  []json.RawMessage `json:"reports"`
			Snapshot json.RawMessage   `json:"snapshot"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze: status %d", resp.StatusCode)
		}
		if err := json.Unmarshal(payload.Snapshot, &snapshot); err != nil {
			t.Fatal(err)
		}
		return payload.Reports, payload.Degraded, snapshot
	}
	compare := func(label string, got []json.RawMessage) {
		t.Helper()
		if len(got) != len(golden) {
			t.Fatalf("%s: fleet found %d reports, CLI %d", label, len(got), len(golden))
		}
		for i := range got {
			var a, b any
			if err := json.Unmarshal(got[i], &a); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(golden[i], &b); err != nil {
				t.Fatal(err)
			}
			na, _ := json.Marshal(a)
			nb, _ := json.Marshal(b)
			if !bytes.Equal(na, nb) {
				t.Errorf("%s: report %d differs:\nfleet: %s\ncli:   %s", label, i+1, na, nb)
			}
		}
	}

	coldReports, coldDeg, coldSnap := post()
	compare("cold", coldReports)
	if coldDeg {
		t.Error("cold fleet run reported degraded")
	}
	if coldSnap.UnitsParsed != 3 || coldSnap.UnitsReused != 0 {
		t.Errorf("cold fleet snapshot: %+v, want 3 parsed across workers", coldSnap)
	}

	warmReports, _, warmSnap := post()
	compare("warm", warmReports)
	if warmSnap.UnitsReused != 3 || warmSnap.UnitsParsed != 0 {
		t.Errorf("warm fleet snapshot: %+v, want 3 reused", warmSnap)
	}

	// Observability plane, full fleet: an all-healthy status, a traced
	// run stitched into one Perfetto trace with a process lane per
	// serving worker, a run journal keyed by the pinned request id, and
	// federated worker metrics on the coordinator's /metrics.
	fleetStatus := func() (size, healthy int) {
		t.Helper()
		resp, err := http.Get("http://" + coordAddr + "/v1/fleet/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fleet status: %d", resp.StatusCode)
		}
		var st struct {
			Size    int `json:"size"`
			Healthy int `json:"healthy"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Size, st.Healthy
	}
	if size, healthy := fleetStatus(); size != 3 || healthy != 3 {
		t.Errorf("fleet status %d/%d, want 3/3 healthy", healthy, size)
	}

	const runID = "smoke-r0001"
	treq, err := http.NewRequest("POST", "http://"+coordAddr+"/v1/analyze?trace=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	treq.Header.Set("Content-Type", "application/json")
	treq.Header.Set("X-Deviant-Request-Id", runID)
	tresp, err := http.DefaultClient.Do(treq)
	if err != nil {
		t.Fatal(err)
	}
	var traced struct {
		Reports []json.RawMessage `json:"reports"`
		Trace   json.RawMessage   `json:"trace"`
	}
	err = json.NewDecoder(tresp.Body).Decode(&traced)
	tresp.Body.Close()
	if err != nil || tresp.StatusCode != http.StatusOK {
		t.Fatalf("traced analyze: status %d err %v", tresp.StatusCode, err)
	}
	compare("traced", traced.Reports)

	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traced.Trace, &trace); err != nil {
		t.Fatalf("stitched trace is not valid Perfetto JSON: %v", err)
	}
	lanes := map[int]string{} // pid -> process name
	scatterTo := map[string]bool{}
	for _, e := range trace.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			lanes[e.Pid] = e.Args["name"]
		}
		if e.Name == "scatter" {
			scatterTo[e.Args["worker"]] = true
		}
	}
	if lanes[1] != "coordinator" {
		t.Errorf("pid 1 lane is %q, want coordinator", lanes[1])
	}
	if len(lanes) != 1+len(scatterTo) || len(scatterTo) == 0 {
		t.Errorf("%d process lanes for %d scattered workers, want one lane per worker plus the coordinator (%v)",
			len(lanes), len(scatterTo), lanes)
	}
	workerLanes := map[string]bool{}
	for pid, name := range lanes {
		if pid == 1 {
			continue
		}
		if !scatterTo[name] {
			t.Errorf("trace lane %q is not a scattered worker (%v)", name, scatterTo)
		}
		workerLanes[name] = true
	}
	if len(workerLanes) != len(scatterTo) {
		t.Errorf("worker lanes %v do not cover scattered workers %v", workerLanes, scatterTo)
	}
	for _, e := range trace.TraceEvents {
		if e.Ph != "M" && lanes[e.Pid] == "" {
			t.Errorf("span %q on unnamed pid %d", e.Name, e.Pid)
		}
	}

	journalBytes, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	events := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(journalBytes)), "\n") {
		var ev struct {
			Run   string `json:"run"`
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("journal line not JSON: %v\n%s", err, line)
		}
		if ev.Run == "" {
			t.Fatalf("journal line without run id: %s", line)
		}
		if ev.Run == runID {
			events[ev.Event]++
		}
	}
	for _, want := range []string{"run_start", "placement", "shard_sent", "shard_returned", "merge", "rank", "run_end"} {
		if events[want] == 0 {
			t.Errorf("journal for %s missing %q event: %v", runID, want, events)
		}
	}

	mresp, err := http.Get("http://" + coordAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := new(bytes.Buffer)
	metrics.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`fleet_go_goroutines{worker="http://`,
		"deviantd_fleet_healthy_workers 3",
		"deviantd_build_info{",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("coordinator /metrics missing %q", want)
		}
	}

	// Kill one worker. Its shard re-scatters to the survivors, so the
	// output stays byte-identical and the run is not degraded.
	workers[1].Process.Kill()
	workers[1].Wait()
	lostReports, lostDeg, _ := post()
	compare("one worker down", lostReports)
	if lostDeg {
		t.Error("losing 1 of 3 workers degraded the run; re-scatter should absorb it")
	}
	// The failed scatter (or the prober, whichever sees it first) marks
	// the dead worker down in fleet status; give the 250ms probe loop a
	// few ticks in case the dead worker owned no units this run.
	downSeen := false
	for i := 0; i < 100 && !downSeen; i++ {
		if size, healthy := fleetStatus(); size == 3 && healthy <= 2 {
			downSeen = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !downSeen {
		t.Error("fleet status never marked the killed worker down")
	}

	// Drain the coordinator: SIGTERM exits 0 with in-flight work done.
	if err := coord.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- coord.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("coordinator exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("coordinator did not drain within 10s of SIGTERM")
	}
}

// TestVersionFlag pins -version: exit 0, one line, the same build
// identity /healthz serves.
func TestVersionFlag(t *testing.T) {
	bin := buildBinary(t, t.TempDir(), "deviant/cmd/deviantd")
	out, err := exec.Command(bin, "-version").Output()
	if err != nil {
		t.Fatalf("-version: %v", err)
	}
	line := strings.TrimSpace(string(out))
	if !strings.HasPrefix(line, "deviantd ") || !strings.Contains(line, "go1.") {
		t.Errorf("-version output %q, want 'deviantd <version> <goversion> ...'", line)
	}
	if strings.Count(string(out), "\n") != 1 {
		t.Errorf("-version should print exactly one line, got %q", out)
	}
}

// TestFleetFlagValidation pins the role/workers-list contract: a worker
// must not scatter, a coordinator must have a fleet, and unknown roles
// are refused — all before binding the listen address.
func TestFleetFlagValidation(t *testing.T) {
	bin := buildBinary(t, t.TempDir(), "deviant/cmd/deviantd")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-role", "worker", "-workers-list", "http://127.0.0.1:1"},
			"workers serve shards"},
		{[]string{"-role", "coordinator"}, "requires -workers-list"},
		{[]string{"-role", "boss"}, "unknown -role"},
		{[]string{"-workers-list", " , ,"}, "no workers"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("%v: want non-zero exit, got %v", tc.args, err)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q missing %q", tc.args, stderr.String(), tc.want)
		}
	}
}

// TestFleetDialerOneRetryLayer pins the fleet's single retry owner: a
// worker that always answers 503 with Retry-After (a draining deviantd)
// costs exactly 1 + Retries shard calls, because the dialed clients do
// not retry underneath the coordinator's transport.
func TestFleetDialerOneRetryLayer(t *testing.T) {
	var calls atomic.Int64
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"server is draining"}`, http.StatusServiceUnavailable)
	}))
	defer worker.Close()
	d := newFleetDialer()
	defer d.closeAll()
	coord, err := dist.NewCoordinator(buildWorkers(d, []string{worker.URL}))
	if err != nil {
		t.Fatal(err)
	}
	const retries = 1 // the -shard-retries default
	coord.SetTransport(dist.TransportConfig{Retries: retries})
	res, err := coord.Run(context.Background(), fleetCorpus(), deviant.DefaultOptions(), "")
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1+retries {
		t.Fatalf("%d shard calls against a persistent 503, want %d", got, 1+retries)
	}
	if !res.Degraded {
		t.Error("units of an unreachable worker were not quarantined")
	}
}
