package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// The traced replay records its own spans around each call it makes
// into a layer; nothing inside the program is instrumented. Spans stay
// in memory and are written once, at the end, as Chrome trace JSON.

// spanRec is one recorded span. Op ties the spans of one operation
// together; Parent is the index of the enclosing span, or -1.
type spanRec struct {
	Name       string
	Op, Parent int
	Start, End time.Duration // since the recorder started
}

type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, op, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanRec{Name: name, Op: op, Parent: parent, Start: time.Since(r.t0), End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// scope is where new spans attach. A scope with a nil recorder runs
// its calls untraced, as warm-ups do.
type scope struct {
	r          *recorder
	op, parent int
}

// span runs f inside a span named name.
func (s scope) span(name string, f func()) {
	if s.r == nil {
		f()
		return
	}
	id := s.r.begin(name, s.op, s.parent)
	f()
	s.r.end(id)
}

// child opens a span and returns the scope nested inside it with the
// function that closes it.
func (s scope) child(name string) (scope, func()) {
	if s.r == nil {
		return s, func() {}
	}
	id := s.r.begin(name, s.op, s.parent)
	return scope{s.r, s.op, id}, func() { s.r.end(id) }
}

// selfTimes returns each span's duration minus the part of its
// interval its children cover. Children may overlap (concurrent shard
// calls), so their intervals are merged first.
func (r *recorder) selfTimes() []time.Duration {
	kids := make(map[int][]int)
	for i, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			c := r.spans[k]
			ivs = append(ivs, iv{max(c.Start, s.Start), min(c.End, s.End)})
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, hi time.Duration
		hi = s.Start
		for _, v := range ivs {
			if v.hi <= hi {
				continue
			}
			covered += v.hi - max(v.lo, hi)
			hi = v.hi
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON, one lane per
// operation.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(r.spans))
	for i, s := range r.spans {
		evs[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Op + 1, Args: map[string]int{"op": s.Op, "parent": s.Parent}}
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// writeLayerTable writes total and per-operation self time by span
// name, the per-layer table of the traced run.
func (r *recorder) writeLayerTable(path string, self []time.Duration, ops int) error {
	total := map[string]time.Duration{}
	count := map[string]int{}
	for i, s := range r.spans {
		total[s.Name] += self[i]
		count[s.Name]++
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return total[names[a]] > total[names[b]] })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "span\tcount\tself_s\tself_s_per_op\n")
	for _, n := range names {
		fmt.Fprintf(w, "%s\t%d\t%.6f\t%.6f\n", n, count[n], total[n].Seconds(), total[n].Seconds()/float64(ops))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
