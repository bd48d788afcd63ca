package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"deviant/internal/service"
)

func TestSeedPlumbing(t *testing.T) {
	a, b := seedTree(7), seedTree(7)
	if !reflect.DeepEqual(a.Files, b.Files) || !reflect.DeepEqual(a.Bugs, b.Bugs) {
		t.Fatal("same seed, different trees")
	}
	if reflect.DeepEqual(a.Files, seedTree(8).Files) {
		t.Fatal("different seeds, same tree")
	}
	if !reflect.DeepEqual(editSchedule(7, a.Units, 50), editSchedule(7, b.Units, 50)) {
		t.Fatal("same seed, different edit schedule")
	}
	if !reflect.DeepEqual(arrivals(50, editRate), arrivals(50, editRate)) {
		t.Fatal("arrival times differ")
	}
	va, vb := salted(7, a.Files), salted(7, b.Files)
	for i := 0; i < 3; i++ {
		if !reflect.DeepEqual(va(), vb()) {
			t.Fatal("same seed, different fleet variants")
		}
	}
	for i, d := range arrivals(5, editRate) {
		if want := time.Duration(float64(i) / editRate * float64(time.Second)); d != want {
			t.Fatalf("arrival %d at %v, want %v", i, d, want)
		}
	}
}

func TestEditsKeepBugLines(t *testing.T) {
	c := seedTree(7)
	for _, e := range editSchedule(7, c.Units, 20) {
		src := e.apply(c.Files)
		if !strings.HasPrefix(src[e.unit], c.Files[e.unit]) {
			t.Fatalf("edit of %s rewrote existing lines", e.unit)
		}
		for name, s := range src {
			if name != e.unit && s != c.Files[name] {
				t.Fatalf("edit of %s touched %s", e.unit, name)
			}
		}
	}
	next := salted(7, c.Files)
	for i := 0; i < 2; i++ {
		for name, s := range next() {
			if !strings.HasPrefix(s, c.Files[name]) {
				t.Fatalf("salting rewrote %s", name)
			}
		}
	}
}

// TestInputsCarryNoWorkloadIdentity: the program receives source files
// and default-option requests only, never the workload's name.
func TestInputsCarryNoWorkloadIdentity(t *testing.T) {
	c := seedTree(7)
	var bodies [][]byte
	for _, src := range []map[string]string{c.Files, salted(7, c.Files)()} {
		body, err := analyzeBody(src)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	for _, e := range editSchedule(7, c.Units, 3) {
		body, err := analyzeBody(e.apply(c.Files))
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	for _, body := range bodies {
		for w := range workloads {
			if bytes.Contains(body, []byte(w)) {
				t.Fatalf("request names workload %s", w)
			}
		}
		var req service.AnalyzeRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		if req.Options != (service.RequestOptions{}) {
			t.Fatalf("request carries options %+v", req.Options)
		}
	}
}

// TestDaemonThatExitsFailsFast: a daemon that dies during start-up is
// reaped and reported, not polled forever.
func TestDaemonThatExitsFailsFast(t *testing.T) {
	bin := t.TempDir()
	if err := os.WriteFile(filepath.Join(bin, "deviantd"), []byte("#!/bin/sh\nexit 3\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := startDaemon(bin, t.TempDir(), "deviantd")
	if err == nil || !strings.Contains(err.Error(), "exited during start-up") {
		t.Fatalf("err = %v, want an exit during start-up", err)
	}
	if d := time.Since(start); d > healthWait/2 {
		t.Fatalf("took %v to notice the exit", d)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	ms := time.Millisecond
	r := &recorder{spans: []spanRec{
		{Name: "op", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 50 * ms}, // overlaps a
		{Name: "c", Parent: 1, Start: 15 * ms, End: 20 * ms},
	}}
	got := r.selfTimes()
	want := []time.Duration{60 * ms, 25 * ms, 20 * ms, 5 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 90); got != 4.6 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
}
