package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"deviant/internal/corpus"
	"deviant/internal/report"
	"deviant/internal/service"
)

// opTimeout bounds one operation; past it the operation has failed.
const opTimeout = 60 * time.Second

// setupRepeats is how many times a run sets its system up; setup_s is
// the median.
const setupRepeats = 3

// decodeAnalyze decodes a deviantd /v1/analyze answer.
func decodeAnalyze(raw []byte) (*output, error) {
	var r service.AnalyzeResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("decode analyze response: %w", err)
	}
	return responseOutput(&r), nil
}

// cliRun is one deviant -json child process.
type cliRun struct {
	out    output
	wall   time.Duration
	cpu    time.Duration
	maxRSS float64 // MB
}

// runCLI runs deviant -json (default -j) on dir and decodes its output.
func runCLI(bin, dir string) (*cliRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "deviant"), "-json", dir)
	cmd.SysProcAttr = dieWithParent()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("deviant -json %s: %v: %s", dir, err, strings.TrimSpace(stderr.String()))
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	r := &cliRun{
		wall:   wall,
		cpu:    cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(),
		maxRSS: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
	if err := decodeCLI(stdout.Bytes(), &r.out); err != nil {
		return nil, fmt.Errorf("deviant -json %s: %w", dir, err)
	}
	return r, nil
}

// decodeCLI parses deviant -json output: a summary line, one line per
// ranked report, then quarantine records on degraded runs.
func decodeCLI(raw []byte, out *output) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	var sum struct {
		ParseErrors int  `json:"parse_errors"`
		Reports     int  `json:"reports"`
		Degraded    bool `json:"degraded"`
		Quarantined int  `json:"quarantined"`
	}
	if err := dec.Decode(&sum); err != nil {
		return fmt.Errorf("summary line: %w", err)
	}
	out.parseErrors, out.degraded, out.quarantined = sum.ParseErrors, sum.Degraded, sum.Quarantined
	for {
		var line struct {
			report.JSONReport
			Stage string `json:"stage"`
		}
		err := dec.Decode(&line)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("report line: %w", err)
		}
		if line.Rank > 0 {
			out.reports = append(out.reports, line.JSONReport)
		}
	}
	if len(out.reports) != sum.Reports {
		return fmt.Errorf("summary says %d reports, stream has %d", sum.Reports, len(out.reports))
	}
	return nil
}

// newHTTPClient returns the load generator's client: no retries, so a
// 429 or 503 is a failed operation, and enough idle connections for
// the open loop's overlap.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
}

// guard sends one tree through the CLI, a fresh local deviantd and a
// fresh two-worker fleet. All three must pass the oracle and return the
// same ranked fingerprint list. It returns the CLI's list whenever the
// CLI answered, with an error if any check failed.
func guard(cfg *config, c *corpus.Corpus, dir string) ([]string, error) {
	cli, err := runCLI(cfg.bin, dir)
	if err != nil {
		return nil, fmt.Errorf("guard: %w", err)
	}
	want := fingerprints(cli.out.reports)
	if v := judge(c.Bugs, &cli.out); v.failed() {
		return want, fmt.Errorf("guard: CLI: %s", v.reason)
	}
	body, err := analyzeBody(c.Files)
	if err != nil {
		return want, err
	}
	for _, start := range []struct {
		name string
		fn   func(bin, dir string) (*system, error)
	}{{"deviantd", startStandalone}, {"fleet", startFleet}} {
		sys, err := start.fn(cfg.bin, cfg.dir)
		if err != nil {
			return want, fmt.Errorf("guard: %w", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		r, err := postAnalyze(ctx, newHTTPClient(), sys.front.base, body)
		cancel()
		sys.stop()
		if err != nil {
			return want, fmt.Errorf("guard: %s: %w", start.name, err)
		}
		if v := judge(c.Bugs, r); v.failed() {
			return want, fmt.Errorf("guard: %s: %s", start.name, v.reason)
		}
		if !slices.Equal(fingerprints(r.reports), want) {
			return want, fmt.Errorf("guard: %s ranked fingerprints differ from the CLI's", start.name)
		}
	}
	return want, nil
}

// guardOp runs the guard as one operation of the tally; it does not
// count toward recall or precision.
func guardOp(cfg *config, c *corpus.Corpus, dir string, t *tally) {
	_, err := guard(cfg, c, dir)
	t.add(verdict{}, err)
}

// sample is one timed operation.
type sample struct {
	latency time.Duration
	ok      bool
	lines   int
}

// e2e gathers what every workload reports.
type e2e struct {
	setups  []time.Duration
	samples []sample
	elapsed time.Duration // measured phase, for kloc_per_s
	cpu     float64       // CPU-seconds of the system under test
	rssMB   float64
	t       tally
}

func (e *e2e) result(workload string) *result {
	lat := make([]float64, len(e.samples))
	lines, within := 0, 0
	for i, s := range e.samples {
		lat[i] = s.latency.Seconds()
		if s.ok {
			lines += s.lines
			if s.latency <= latencyLimit[workload] {
				within++
			}
		}
	}
	setups := make([]float64, len(e.setups))
	for i, d := range e.setups {
		setups[i] = d.Seconds()
	}
	n := float64(len(e.samples))
	p90 := percentile(lat, 90)
	beyond := 0
	for _, l := range lat {
		if l > p90 {
			beyond++
		}
	}
	fmt.Printf("# %s: %d timed operations, %d beyond p90 (p90 needs at least 10), setups %v\n",
		workload, len(lat), beyond, e.setups)
	if e.t.firstFailure != "" {
		fmt.Printf("# first failure: %s\n", e.t.firstFailure)
	}
	return &result{
		Correct:   e.t.failed == 0,
		Attempted: e.t.attempted,
		Failed:    e.t.failed,
		Metrics: map[string]metric{
			"setup_s":            {percentile(setups, 50), "s"},
			"latency_p50_s":      {percentile(lat, 50), "s"},
			"latency_p90_s":      {p90, "s"},
			"cpu_s_per_op":       {e.cpu / n, "s"},
			"kloc_per_s":         {float64(lines) / 1000 / e.elapsed.Seconds(), "kloc/s"},
			"peak_rss_mb":        {e.rssMB, "MB"},
			"ok_share":           {1 - ratio(float64(e.t.failed), float64(e.t.attempted)), "share"},
			"within_limit_share": {ratio(float64(within), n), "share"},
			"recall":             {e.t.recall(), "share"},
			"precision_at_k":     {e.t.precisionAtK(), "share"},
		},
	}
}

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// runColdTree: closed loop, one deviant -json child at a time on the
// seed's tree.
func runColdTree(cfg *config) (*result, error) {
	c := seedTree(cfg.seed)
	dir := filepath.Join(cfg.dir, "trees", "base")
	if err := writeTree(c, dir); err != nil {
		return nil, err
	}
	var e e2e
	guardOp(cfg, c, dir, &e.t)

	// The CLI has no daemon to bring up: its set-up is launching the
	// process and reaching a first verdict, so each set-up is one
	// untimed run, which also warms the page cache for the tree.
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if _, err := runCLI(cfg.bin, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		e.setups = append(e.setups, time.Since(t0))
	}

	start := time.Now()
	for time.Since(start) < cfg.seconds {
		t0 := time.Now()
		r, err := runCLI(cfg.bin, dir)
		v := verdict{seeded: len(c.Bugs)}
		s := sample{lines: c.Lines, latency: time.Since(t0)}
		if err == nil {
			v = judge(c.Bugs, &r.out)
			s.latency = r.wall
			e.cpu += r.cpu.Seconds()
			e.rssMB = max(e.rssMB, r.maxRSS)
		}
		s.ok = e.t.add(v, err)
		e.samples = append(e.samples, s)
	}
	e.elapsed = time.Since(start)
	return e.result(cfg.workload), nil
}

// setUp starts a system setupRepeats times, each time until it has
// answered a warm-up request; all but the last are stopped again. It
// returns the running system. Warm-up answers are not judged: the
// oracle judges the measured operations and the guard.
func setUp(e *e2e, start func() (*system, error), warm []byte) (*system, error) {
	hc := newHTTPClient()
	for i := 0; ; i++ {
		t0 := time.Now()
		sys, err := start()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		_, err = postAnalyze(ctx, hc, sys.front.base, warm)
		cancel()
		if err != nil {
			sys.stop()
			return nil, fmt.Errorf("set-up warm-up: %w", err)
		}
		e.setups = append(e.setups, time.Since(t0))
		if i == setupRepeats-1 {
			return sys, nil
		}
		sys.stop()
	}
}

// measureSystem records the system's CPU and peak memory around fn.
func measureSystem(e *e2e, sys *system, fn func()) error {
	cpu0, err := sys.cpuSeconds()
	if err != nil {
		return err
	}
	fn()
	cpu1, err := sys.cpuSeconds()
	if err != nil {
		return err
	}
	e.cpu = cpu1 - cpu0
	e.rssMB, err = sys.peakRSSMB()
	return err
}

// runEditStream: one warmed local deviantd receives the base tree with
// one seeded unit edited, in an open loop at editRate. Latency runs
// from each request's due time.
func runEditStream(cfg *config) (*result, error) {
	base := seedTree(cfg.seed)
	n := int(cfg.seconds.Seconds() * editRate)
	edits := editSchedule(cfg.seed, base.Units, n)
	due := arrivals(n, editRate)
	bodies := make([][]byte, n)
	lines := make([]int, n)
	for i, ed := range edits {
		var err error
		if bodies[i], err = analyzeBody(ed.apply(base.Files)); err != nil {
			return nil, err
		}
		lines[i] = base.Lines + strings.Count(ed.fn, "\n")
	}
	warm, err := analyzeBody(base.Files)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.dir, "trees", "base")
	if err := writeTree(base, dir); err != nil {
		return nil, err
	}
	var e e2e
	guardOp(cfg, base, dir, &e.t)
	sys, err := setUp(&e, func() (*system, error) { return startStandalone(cfg.bin, cfg.dir) }, warm)
	if err != nil {
		return nil, err
	}
	defer sys.stop()

	hc := newHTTPClient()
	type opOut struct {
		r   *output
		err error
		lat time.Duration
	}
	outs := make([]opOut, n)
	var start time.Time
	err = measureSystem(&e, sys, func() {
		var wg sync.WaitGroup
		start = time.Now()
		for i := 0; i < n; i++ {
			time.Sleep(time.Until(start.Add(due[i])))
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				defer cancel()
				r, err := postAnalyze(ctx, hc, sys.front.base, bodies[i])
				outs[i] = opOut{r, err, time.Since(start.Add(due[i]))}
			}(i)
		}
		wg.Wait()
		e.elapsed = max(cfg.seconds, time.Since(start))
	})
	if err != nil {
		return nil, err
	}
	for i, o := range outs {
		v := verdict{seeded: len(base.Bugs)}
		if o.err == nil {
			v = judge(base.Bugs, o.r)
		}
		ok := e.t.add(v, o.err)
		e.samples = append(e.samples, sample{latency: o.lat, ok: ok, lines: lines[i]})
	}
	return e.result(cfg.workload), nil
}

// runFleetCold: a coordinator and two workers; one client sends the
// seed's tree, salted afresh for every operation, and waits for the
// verdict.
func runFleetCold(cfg *config) (*result, error) {
	c := seedTree(cfg.seed)
	dir := filepath.Join(cfg.dir, "trees", "base")
	if err := writeTree(c, dir); err != nil {
		return nil, err
	}
	next := salted(cfg.seed, c.Files)
	warm, err := analyzeBody(next())
	if err != nil {
		return nil, err
	}
	var e e2e
	guardOp(cfg, c, dir, &e.t)
	sys, err := setUp(&e, func() (*system, error) { return startFleet(cfg.bin, cfg.dir) }, warm)
	if err != nil {
		return nil, err
	}
	defer sys.stop()

	hc := newHTTPClient()
	var encodeErr error
	err = measureSystem(&e, sys, func() {
		var think time.Duration
		start := time.Now()
		for time.Since(start) < cfg.seconds {
			// Salting and encoding the next tree is the client's think
			// time: outside the operation and the measured phase.
			t0 := time.Now()
			body, err := analyzeBody(next())
			think += time.Since(t0)
			if err != nil {
				encodeErr = err
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			t0 = time.Now()
			r, err := postAnalyze(ctx, hc, sys.front.base, body)
			lat := time.Since(t0)
			cancel()
			v := verdict{seeded: len(c.Bugs)}
			if err == nil {
				v = judge(c.Bugs, r)
			}
			ok := e.t.add(v, err)
			e.samples = append(e.samples, sample{latency: lat, ok: ok, lines: c.Lines})
		}
		e.elapsed = time.Since(start) - think
	})
	if err := errors.Join(err, encodeErr); err != nil {
		return nil, err
	}
	return e.result(cfg.workload), nil
}
