package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deviant/internal/cast"
	"deviant/internal/client"
	"deviant/internal/core"
	"deviant/internal/corpus"
	"deviant/internal/cparse"
	"deviant/internal/cpp"
	"deviant/internal/ctoken"
	"deviant/internal/dist"
	"deviant/internal/report"
	"deviant/internal/service"
	"deviant/internal/snapshot"
)

// The traced run (-trace 1) replays a workload's operations inside
// this process, wiring the services as cmd/deviantd wires them, and
// reports per-layer metrics from its own spans plus counts from public
// result fields. Operation 0 is the guard tree sent through the
// library replay, an in-process service and an in-process fleet; each
// must reproduce the CLI's ranked fingerprints. Per-layer values are
// per operation, averaged over the workload's operations plus that
// guard operation, so a layer the workload bypasses reads near zero.

// traced is one traced run's state.
type traced struct {
	cfg *config
	rec *recorder
	n   *counts
	t   tally
	ops int // operations with spans, the guard included

	latencies []time.Duration // traced counterpart of each e2e operation
	late      []time.Duration // how late the generator sent each operation
	serial    map[int]time.Duration

	feWall, feUnits time.Duration // core.frontend wall; Σ per-unit preprocess+parse
	cppExtra        time.Duration // worker-side preprocess (fleet shards)
	parseExtra      time.Duration // worker-side parse (fleet shards)

	svcReqBytes, svcRespBytes atomic.Int64
	svcOverhead               time.Duration

	shardReqBytes, shardRespBytes, shardAttempts atomic.Int64
	neededBytes, shippedBytes                    int64
	slowestShards                                time.Duration

	allocBytes uint64 // allocated during the workload's operations
	gcs        uint32 // collections during the workload's operations
	memOps     int
	overhead   time.Duration // span recording cost per operation
}

func newTraced(cfg *config) *traced {
	return &traced{cfg: cfg, rec: newRecorder(), n: newCounts(), serial: map[int]time.Duration{}}
}

// check judges one replayed output and requires its fingerprints to
// equal want when want is non-nil.
func (tr *traced) check(bugs []corpus.Bug, out *output, want []string, what string) {
	v := judge(bugs, out)
	var err error
	if want != nil && !slices.Equal(fingerprints(out.reports), want) {
		err = fmt.Errorf("%s: ranked fingerprints differ from the untraced run's", what)
	}
	tr.t.add(v, err)
}

// ---- in-process service ------------------------------------------------

// countingTransport counts request and response body bytes.
type countingTransport struct {
	rt                  http.RoundTripper
	reqBytes, respBytes *atomic.Int64
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		t.reqBytes.Add(r.ContentLength)
	}
	resp, err := t.rt.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = countingBody{resp.Body, t.respBytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// inprocService is service.New on a loopback listener, driven through
// client.Client with retries off.
type inprocService struct {
	srv       *service.Server
	hs        *http.Server
	cl        *client.Client
	transport *http.Transport
}

func startService(tr *traced) (*inprocService, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &inprocService{srv: service.New(service.Config{}), transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	s.hs = &http.Server{Handler: s.srv}
	go s.hs.Serve(ln) // returns ErrServerClosed once stop closes it
	s.cl = client.New("http://"+ln.Addr().String(), client.WithMaxRetries(0),
		client.WithHTTPClient(&http.Client{Transport: countingTransport{s.transport, &tr.svcReqBytes, &tr.svcRespBytes}}))
	return s, nil
}

func (s *inprocService) stop() {
	s.hs.Close()
	s.transport.CloseIdleConnections()
}

// analysisSeconds reads the server's cumulative analysis wall clock.
func (s *inprocService) analysisSeconds() float64 {
	for _, smp := range s.srv.Registry().Samples() {
		if smp.Name == "deviantd_analysis_seconds_total" {
			return smp.Value
		}
	}
	return 0
}

// analyze sends one request inside a service.roundtrip span and
// returns its output and round-trip time.
func (s *inprocService) analyze(sc scope, req service.AnalyzeRequest) (*service.AnalyzeResponse, time.Duration, error) {
	var resp *service.AnalyzeResponse
	var err error
	t0 := time.Now()
	sc.span("service.roundtrip", func() {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		resp, err = s.cl.Analyze(ctx, req)
	})
	return resp, time.Since(t0), err
}

func responseOutput(r *service.AnalyzeResponse) *output {
	return &output{reports: r.Reports, parseErrors: r.ParseErrors, degraded: r.Degraded, quarantined: len(r.Quarantined)}
}

// ---- in-process fleet --------------------------------------------------

// inprocWorker is a fleet worker called in-process: the shard request
// and response cross a JSON encoding as on the wire, and dist.RunShard
// does the work against the worker's own snapshot store.
type inprocWorker struct {
	tr    *traced
	store *snapshot.Store

	mu       sync.Mutex
	sc       scope
	partials []dist.UnitPartial
	snap     snapshot.RunStats
}

func (w *inprocWorker) Shard(ctx context.Context, req *dist.ShardRequest, requestID string) (*dist.ShardResponse, error) {
	w.mu.Lock()
	sc := w.sc
	w.mu.Unlock()
	var resp dist.ShardResponse
	var err error
	sc.span("dist.worker_shard", func() {
		var raw, out []byte
		if raw, err = json.Marshal(req); err != nil {
			return
		}
		var wire dist.ShardRequest
		if err = json.Unmarshal(raw, &wire); err != nil {
			return
		}
		var r *dist.ShardResponse
		if r, err = dist.RunShard(&wire, w.store, 0); err != nil {
			return
		}
		if out, err = json.Marshal(r); err != nil {
			return
		}
		if err = json.Unmarshal(out, &resp); err != nil {
			return
		}
		w.tr.shardAttempts.Add(1)
		w.tr.shardReqBytes.Add(int64(len(raw)))
		w.tr.shardRespBytes.Add(int64(len(out)))
		w.mu.Lock()
		w.partials = append(w.partials, resp.Partials...)
		w.snap.UnitsReused += resp.Snapshot.UnitsReused
		w.snap.UnitsParsed += resp.Snapshot.UnitsParsed
		w.mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

type inprocFleet struct {
	coord   *dist.Coordinator
	workers []*inprocWorker
}

func newInprocFleet(tr *traced) (*inprocFleet, error) {
	f := &inprocFleet{}
	var ws []dist.Worker
	for i := 1; i <= 2; i++ {
		w := &inprocWorker{tr: tr, store: snapshot.NewStore(0)}
		f.workers = append(f.workers, w)
		ws = append(ws, dist.Worker{Name: fmt.Sprintf("worker%d", i), Caller: w})
	}
	c, err := dist.NewCoordinator(ws)
	if err != nil {
		return nil, err
	}
	f.coord = c
	return f, nil
}

func (f *inprocFleet) evictions() int64 {
	var n int64
	for _, w := range f.workers {
		n += w.store.Stats().Evictions
	}
	return n
}

// run sends one tree through Coordinator.Run inside a dist.run span,
// then replays the coordinator's reparse from the shards' partials.
// It returns the coordinator's ranked reports and the reparsed units.
func (f *inprocFleet) run(tr *traced, sc scope, srcs map[string]string, id string) (*core.Result, []core.ParsedUnit, error) {
	runSc, end := sc.child("dist.run")
	for _, w := range f.workers {
		w.mu.Lock()
		w.sc, w.partials = runSc, nil
		w.mu.Unlock()
	}
	first := len(tr.rec.spans)
	res, err := f.coord.Run(context.Background(), srcs, core.DefaultOptions(), id)
	end()
	if err != nil {
		return nil, nil, err
	}
	if sc.r != nil {
		tr.slowestShards += slowest(tr.rec, first, "dist.worker_shard")
	}
	var partials []dist.UnitPartial
	for _, w := range f.workers {
		w.mu.Lock()
		if len(w.partials) > 0 {
			// Every shard request carries the whole corpus.
			tr.neededBytes += neededBytes(srcs, w.partials)
			tr.shippedBytes += sourceBytes(srcs)
		}
		partials = append(partials, w.partials...)
		tr.n.unitHits += w.snap.UnitsReused
		tr.n.unitMisses += w.snap.UnitsParsed
		w.snap = snapshot.RunStats{}
		w.mu.Unlock()
	}
	sort.Slice(partials, func(a, b int) bool { return partials[a].Unit < partials[b].Unit })
	for _, p := range partials {
		tr.cppExtra += time.Duration(p.PreprocessNs)
		tr.parseExtra += time.Duration(p.ParseNs)
		tr.feUnits += time.Duration(p.PreprocessNs + p.ParseNs)
	}
	var units []core.ParsedUnit
	sc.span("dist.reparse", func() {
		for _, p := range partials {
			var toks []ctoken.Token
			if err = gob.NewDecoder(bytes.NewReader(p.Tokens)).Decode(&toks); err != nil {
				return
			}
			file, perrs := cparse.ParseFile(p.Unit, toks)
			tr.n.tokens += len(toks)
			tr.n.decls += len(file.Decls)
			tr.n.parseErrors += len(perrs)
			units = append(units, core.ParsedUnit{Name: p.Unit, File: file, ParseErrors: perrs, Lines: p.Lines})
		}
	})
	return res, units, err
}

// slowest returns the longest span named name recorded since index
// first: the shard that set the scatter's wall time.
func slowest(r *recorder, first int, name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var d time.Duration
	for _, s := range r.spans[first:] {
		if s.Name == name {
			d = max(d, s.End-s.Start)
		}
	}
	return d
}

// sourceBytes is the size of a corpus's sources.
func sourceBytes(srcs map[string]string) int64 {
	var n int64
	for _, s := range srcs {
		n += int64(len(s))
	}
	return n
}

// neededBytes is the source bytes one shard's units actually need: the
// units plus the union of their include closures.
func neededBytes(srcs map[string]string, shard []dist.UnitPartial) int64 {
	var n int64
	seen := map[string]bool{}
	var walk func(name string)
	walk = func(name string) {
		src, ok := srcs[name]
		if !ok || seen[name] {
			return
		}
		seen[name] = true
		n += int64(len(src))
		for _, line := range strings.Split(src, "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "#include") {
				continue
			}
			inc := strings.Trim(strings.TrimSpace(strings.TrimPrefix(line, "#include")), "<>\"")
			walk(filepath.Join(filepath.Dir(name), inc))
			walk(filepath.Join("include", inc))
		}
	}
	for _, p := range shard {
		walk(p.Unit)
	}
	return n
}

// ---- shared steps --------------------------------------------------------

// libraryOp replays one analysis through the layers (frontend, then
// downstream) inside an "op" span and returns its reports and wall time.
func (tr *traced) libraryOp(sc scope, fs cpp.MapFS, units []string, store *snapshot.Store) ([]report.JSONReport, int, time.Duration) {
	t0 := time.Now()
	opSc, end := sc.child("op")
	n := tr.n
	if sc.r == nil {
		n = newCounts() // untraced warm-ups count nothing
	}
	before := n.parseErrors
	files, owner := replayFrontend(opSc, fs, units, store, n)
	out := replayDownstream(opSc, files, owner, n)
	end()
	return out, n.parseErrors - before, time.Since(t0)
}

// frontendRef times core.Analyzer.Frontend, the concurrent frontend the
// program runs, for core.frontend_wall_s and its parallelism.
func (tr *traced) frontendRef(sc scope, fs cpp.MapFS, units []string, store *snapshot.Store) error {
	opts := core.DefaultOptions()
	opts.Snapshot = store
	var fr *core.FrontendResult
	var err error
	t0 := time.Now()
	sc.span("core.frontend", func() { fr, err = core.New(opts, nil).Frontend(fs, units) })
	if err != nil {
		return err
	}
	tr.feWall += time.Since(t0)
	for _, u := range fr.Units {
		tr.feUnits += u.Preprocess + u.Parse
	}
	return nil
}

// serialRef times the program's own serial analysis of the same input,
// the reference core.unattributed_s compares the layer spans against.
func (tr *traced) serialRef(sc scope, store *snapshot.Store, fn func(*core.Analyzer) error) error {
	opts := core.DefaultOptions()
	opts.Workers, opts.Snapshot = 1, store
	var err error
	t0 := time.Now()
	sc.span("core.serial", func() { err = fn(core.New(opts, nil)) })
	tr.serial[sc.op] = time.Since(t0)
	return err
}

// guardOp is operation 0: the guard tree through the library replay, an
// in-process service and an in-process fleet, each checked against the
// CLI's untraced fingerprints want.
func (tr *traced) guardOp(c *corpus.Corpus, want []string) error {
	sc := scope{tr.rec, 0, -1}
	tr.ops++
	// A fresh store: the guard also exercises snapshot lookups and adds.
	out, perrs, _ := tr.libraryOp(sc, cpp.MapFS(c.Files), c.Units, snapshot.NewStore(0))
	tr.check(c.Bugs, &output{reports: out, parseErrors: perrs}, want, "guard library replay")

	svc, err := startService(tr)
	if err != nil {
		return err
	}
	resp, rtt, err := svc.analyze(sc, service.AnalyzeRequest{Sources: c.Files})
	if err == nil {
		tr.svcOverhead += rtt - time.Duration(svc.analysisSeconds()*float64(time.Second))
		tr.n.unitMisses += resp.Snapshot.UnitsParsed
		tr.n.unitHits += resp.Snapshot.UnitsReused
		tr.n.snapGraphsNew += resp.Snapshot.GraphsBuilt
		tr.n.snapGraphsReused += resp.Snapshot.GraphsReused
		tr.check(c.Bugs, responseOutput(resp), want, "guard service")
	} else {
		tr.t.add(verdict{}, fmt.Errorf("guard service: %w", err))
	}
	tr.n.evictions += svc.srv.Store().Stats().Evictions
	svc.stop()

	fl, err := newInprocFleet(tr)
	if err != nil {
		return err
	}
	res, _, err := fl.run(tr, sc, c.Files, "guard")
	if err != nil {
		tr.t.add(verdict{}, fmt.Errorf("guard fleet: %w", err))
	} else {
		tr.check(c.Bugs, resultOutput(res), want, "guard fleet")
	}
	tr.n.evictions += fl.evictions()
	return nil
}

// resultOutput renders a core result's ranked reports in wire shape.
func resultOutput(res *core.Result) *output {
	ranked := res.Reports.Ranked()
	reps := make([]report.JSONReport, len(ranked))
	for i := range ranked {
		reps[i] = report.ToJSON(i+1, &ranked[i])
	}
	return &output{reports: reps, parseErrors: len(res.ParseErrors), degraded: res.Degraded, quarantined: len(res.Quarantined)}
}

// calibrate measures the tracing overhead: what recording one span
// costs, times the spans recorded per operation. Timing whole traced
// and untraced analyses against each other cannot resolve it; their
// garbage-collection noise is a thousand times larger.
func (tr *traced) calibrate() {
	const n = 100000
	scratch := newRecorder()
	sc := scope{scratch, 0, -1}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sc.span("x", func() {})
	}
	perSpan := time.Since(t0) / n
	tr.overhead = perSpan * time.Duration(len(tr.rec.spans)) / time.Duration(tr.ops)
}

// measureAlloc runs fn, the part of a workload operation that stands
// for the untraced operation, and adds its allocation and collections
// to the runtime counters; ops is how many operations fn performs.
func (tr *traced) measureAlloc(ops int, fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	tr.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	tr.gcs += m1.NumGC - m0.NumGC
	tr.memOps += ops
}

// ---- workloads -------------------------------------------------------------

// prepare generates the seed's tree, writes it for the CLI and runs
// the process guard, whose CLI fingerprints the replay must reproduce.
// A guard that fails after the CLI answered is returned as guardErr, a
// failed operation rather than a failed run.
func prepare(cfg *config) (c *corpus.Corpus, want []string, guardErr, err error) {
	c = seedTree(cfg.seed)
	dir := filepath.Join(cfg.dir, "trees", "base")
	if err := writeTree(c, dir); err != nil {
		return nil, nil, nil, err
	}
	want, guardErr = guard(cfg, c, dir)
	if want == nil {
		return nil, nil, nil, guardErr
	}
	return c, want, guardErr, nil
}

func replayColdTree(cfg *config) (*result, error) {
	c, want, guardErr, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	tr := newTraced(cfg)
	tr.t.add(verdict{}, guardErr)
	if err := tr.guardOp(c, want); err != nil {
		return nil, err
	}
	fs := cpp.MapFS(c.Files)
	start := time.Now()
	prevEnd := start
	for op := 1; time.Since(start) < cfg.seconds; op++ {
		tr.late = append(tr.late, time.Since(prevEnd))
		sc := scope{tr.rec, op, -1}
		tr.ops++
		var out []report.JSONReport
		var perrs int
		var wall time.Duration
		tr.measureAlloc(1, func() { out, perrs, wall = tr.libraryOp(sc, fs, c.Units, nil) })
		tr.latencies = append(tr.latencies, wall)
		tr.check(c.Bugs, &output{reports: out, parseErrors: perrs}, want, "library replay")
		if err := tr.frontendRef(sc, fs, c.Units, nil); err != nil {
			return nil, err
		}
		if err := tr.serialRef(sc, nil, func(a *core.Analyzer) error {
			_, err := a.AnalyzeSources(c.Files)
			return err
		}); err != nil {
			return nil, err
		}
		prevEnd = time.Now()
	}
	return tr.result()
}

func replayEditStream(cfg *config) (*result, error) {
	c, want, guardErr, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	tr := newTraced(cfg)
	tr.t.add(verdict{}, guardErr)
	if err := tr.guardOp(c, want); err != nil {
		return nil, err
	}
	// Half the run drives an in-process service in the open loop, the
	// other half replays the same edits through the layers.
	n := int(cfg.seconds.Seconds() / 2 * editRate)
	edits := editSchedule(cfg.seed, c.Units, n)
	due := arrivals(n, editRate)
	reqs := make([]service.AnalyzeRequest, n)
	for i, ed := range edits {
		reqs[i] = service.AnalyzeRequest{Sources: ed.apply(c.Files)}
	}

	svc, err := startService(tr)
	if err != nil {
		return nil, err
	}
	defer svc.stop()
	if _, _, err := svc.analyze(scope{}, service.AnalyzeRequest{Sources: c.Files}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// Three stores warmed on the base tree, as the daemon's is: the
	// replay's own, core.Analyzer.Frontend's and the serial reference's.
	// Frontend reuses an artifact only if it kept its tokens, as fleet
	// workers' stores do.
	stores := [3]*snapshot.Store{snapshot.NewStore(0), snapshot.NewStore(0), snapshot.NewStore(0)}
	stores[1].SetRetainTokens(true)
	tr.libraryOp(scope{}, cpp.MapFS(c.Files), c.Units, stores[0])
	feOpts := core.DefaultOptions()
	feOpts.Snapshot = stores[1]
	if _, err := core.New(feOpts, nil).Frontend(cpp.MapFS(c.Files), c.Units); err != nil {
		return nil, err
	}
	refOpts := core.DefaultOptions()
	refOpts.Workers, refOpts.Snapshot = 1, stores[2]
	if _, err := core.New(refOpts, nil).AnalyzeSources(c.Files); err != nil {
		return nil, err
	}
	ev0 := svc.srv.Store().Stats().Evictions

	resps := make([]*service.AnalyzeResponse, n)
	errs := make([]error, n)
	lat := make([]time.Duration, n)
	var rtts atomic.Int64
	a0 := svc.analysisSeconds()
	tr.measureAlloc(n, func() {
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < n; i++ {
			time.Sleep(time.Until(start.Add(due[i])))
			tr.late = append(tr.late, time.Since(start.Add(due[i])))
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r, rtt, err := svc.analyze(scope{tr.rec, i + 1, -1}, reqs[i])
				resps[i], errs[i], lat[i] = r, err, time.Since(start.Add(due[i]))
				rtts.Add(int64(rtt))
			}(i)
		}
		wg.Wait()
	})
	tr.svcOverhead += time.Duration(rtts.Load()) - time.Duration((svc.analysisSeconds()-a0)*float64(time.Second))
	tr.n.evictions += svc.srv.Store().Stats().Evictions - ev0
	tr.latencies = append(tr.latencies, lat...)

	for i := 0; i < n; i++ {
		tr.ops++
		if errs[i] != nil {
			tr.t.add(verdict{seeded: len(c.Bugs)}, errs[i])
			continue
		}
		s := resps[i].Snapshot
		tr.n.unitHits += s.UnitsReused
		tr.n.unitMisses += s.UnitsParsed
		tr.n.snapGraphsReused += s.GraphsReused
		tr.n.snapGraphsNew += s.GraphsBuilt

		sc := scope{tr.rec, i + 1, -1}
		fs := cpp.MapFS(reqs[i].Sources)
		ev := stores[0].Stats().Evictions
		out, perrs, _ := tr.libraryOp(sc, fs, c.Units, stores[0])
		tr.n.evictions += stores[0].Stats().Evictions - ev
		// One operation: the service's answer is judged, and the layer
		// replay of the same edit must reproduce its fingerprints.
		v := judge(c.Bugs, responseOutput(resps[i]))
		var mismatch error
		if perrs > 0 || !slices.Equal(fingerprints(out), fingerprints(resps[i].Reports)) {
			mismatch = errors.New("library replay: ranked fingerprints differ from the service's")
		}
		tr.t.add(v, mismatch)
		if err := tr.frontendRef(sc, fs, c.Units, stores[1]); err != nil {
			return nil, err
		}
		if err := tr.serialRef(sc, stores[2], func(a *core.Analyzer) error {
			_, err := a.AnalyzeSources(reqs[i].Sources)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return tr.result()
}

func replayFleetCold(cfg *config) (*result, error) {
	c, want, guardErr, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	next := salted(cfg.seed, c.Files)
	// Warm the fleet up before anything is counted: its workers report
	// into tr, which starts afresh afterwards.
	warmTr := newTraced(cfg)
	fl, err := newInprocFleet(warmTr)
	if err != nil {
		return nil, err
	}
	if _, _, err := fl.run(warmTr, scope{}, next(), "warm-up"); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	tr := newTraced(cfg)
	tr.t.add(verdict{}, guardErr)
	for _, w := range fl.workers {
		w.tr = tr
	}
	if err := tr.guardOp(c, want); err != nil {
		return nil, err
	}
	ev0 := fl.evictions()

	start := time.Now()
	prevEnd := start
	for op := 1; time.Since(start) < cfg.seconds; op++ {
		tr.late = append(tr.late, time.Since(prevEnd))
		sc := scope{tr.rec, op, -1}
		tr.ops++
		opSc, end := sc.child("op")
		t0 := time.Now()
		var res *core.Result
		var units []core.ParsedUnit
		var runErr error
		src := next()
		tr.measureAlloc(1, func() { res, units, runErr = fl.run(tr, opSc, src, fmt.Sprintf("op-%d", op)) })
		tr.latencies = append(tr.latencies, time.Since(t0))
		if runErr != nil {
			end()
			tr.t.add(verdict{seeded: len(c.Bugs)}, runErr)
			continue
		}
		files := make([]*cast.File, len(units))
		for i, u := range units {
			files[i] = u.File
		}
		out := replayDownstream(opSc, files, nil, tr.n)
		end()
		// One operation: the fleet's answer is judged and must carry the
		// CLI's fingerprints, and so must the replay of its reparse.
		fleetOut := resultOutput(res)
		v := judge(c.Bugs, fleetOut)
		var mismatch error
		switch {
		case !slices.Equal(fingerprints(fleetOut.reports), want):
			mismatch = errors.New("fleet: ranked fingerprints differ from the untraced CLI's")
		case !slices.Equal(fingerprints(out), want):
			mismatch = errors.New("fleet replay: ranked fingerprints differ from the untraced CLI's")
		}
		tr.t.add(v, mismatch)
		if err := tr.serialRef(sc, nil, func(a *core.Analyzer) error {
			_, err := a.AnalyzeParsed(units, nil, 0)
			return err
		}); err != nil {
			return nil, err
		}
		prevEnd = time.Now()
	}
	tr.n.evictions += fl.evictions() - ev0
	return tr.result()
}

// ---- metrics -------------------------------------------------------------

// unattributedLayers are the spans whose self times a serial
// core.Analyzer run should consist of.
func unattributedLayer(name string) bool {
	switch name {
	case "cpp", "cparse", "snapshot.lookup", "snapshot.add", "csem", "cfg", "report.fingerprint", "report.rank":
		return true
	}
	return strings.HasPrefix(name, "checker.")
}

func (tr *traced) result() (*result, error) {
	tr.calibrate()

	self := tr.rec.selfTimes()
	byName := map[string]time.Duration{}
	layerByOp := map[int]time.Duration{}
	for i, s := range tr.rec.spans {
		byName[s.Name] += self[i]
		if unattributedLayer(s.Name) {
			layerByOp[s.Op] += self[i]
		}
	}
	var unattributed time.Duration
	for op, d := range tr.serial {
		unattributed += d - layerByOp[op]
	}
	ops := float64(tr.ops)
	perOp := func(d time.Duration) float64 { return d.Seconds() / ops }
	n := tr.n
	m := map[string]metric{
		"cpp.preprocess_s":           {perOp(byName["cpp"] + tr.cppExtra), "s"},
		"cpp.tokens":                 {float64(n.tokens) / ops, "count"},
		"cpp.scan_cache_hit_ratio":   {ratio(float64(n.scanHits), float64(n.scanHits+n.scanMisses)), "share"},
		"cparse.parse_s":             {perOp(byName["cparse"] + tr.parseExtra), "s"},
		"cparse.decls":               {float64(n.decls) / ops, "count"},
		"core.frontend_wall_s":       {perOp(tr.feWall + tr.slowestShards), "s"},
		"core.frontend_parallelism":  {ratio(tr.feUnits.Seconds(), (tr.feWall + tr.slowestShards).Seconds()), "ratio"},
		"core.unattributed_s":        {unattributed.Seconds() / float64(max(1, len(tr.serial))), "s"},
		"csem.index_s":               {perOp(byName["csem"]), "s"},
		"cfg.build_s":                {perOp(byName["cfg"]), "s"},
		"cfg.graphs_built":           {float64(n.graphsBuilt) / ops, "count"},
		"cfg.blocks":                 {float64(n.blocks) / ops, "count"},
		"engine.visits":              {float64(n.visits) / ops, "count"},
		"engine.memo_hit_ratio":      {ratio(float64(n.memoHits), float64(n.visits+n.memoHits)), "share"},
		"report.fingerprint_s":       {perOp(byName["report.fingerprint"]), "s"},
		"report.rank_s":              {perOp(byName["report.rank"]), "s"},
		"report.render_s":            {perOp(byName["report.render"]), "s"},
		"report.render_bytes":        {float64(n.renderBytes) / ops, "bytes"},
		"snapshot.unit_hit_ratio":    {ratio(float64(n.unitHits), float64(n.unitHits+n.unitMisses)), "share"},
		"snapshot.graph_reuse_ratio": {ratio(float64(n.snapGraphsReused), float64(n.snapGraphsReused+n.snapGraphsNew)), "share"},
		"snapshot.lookup_s":          {perOp(byName["snapshot.lookup"]), "s"},
		"snapshot.evictions":         {float64(n.evictions) / ops, "count"},
		"service.request_bytes":      {float64(tr.svcReqBytes.Load()) / ops, "bytes"},
		"service.response_bytes":     {float64(tr.svcRespBytes.Load()) / ops, "bytes"},
		"service.overhead_s":         {perOp(tr.svcOverhead), "s"},
		"dist.shard_request_bytes":   {float64(tr.shardReqBytes.Load()) / ops, "bytes"},
		"dist.shard_response_bytes":  {float64(tr.shardRespBytes.Load()) / ops, "bytes"},
		"dist.needed_bytes_ratio":    {ratio(float64(tr.neededBytes), float64(tr.shippedBytes)), "share"},
		"dist.worker_shard_s":        {perOp(tr.slowestShards), "s"},
		"dist.reparse_s":             {perOp(byName["dist.reparse"]), "s"},
		"dist.shard_attempts":        {float64(tr.shardAttempts.Load()) / ops, "count"},
		"runtime.alloc_mb_per_op":    {float64(tr.allocBytes) / 1e6 / float64(max(1, tr.memOps)), "MB"},
		"runtime.gc_per_op":          {float64(tr.gcs) / float64(max(1, tr.memOps)), "count"},
		"loadgen.late_p90_s":         {percentile(seconds(tr.late), 90), "s"},
		"trace.latency_p50_s":        {percentile(seconds(tr.latencies), 50), "s"},
		"trace.overhead_s":           {tr.overhead.Seconds(), "s"},
	}
	for _, name := range checkerNames {
		m["checker."+name+".traverse_s"] = metric{perOp(byName["checker."+name+".traverse"]), "s"}
		m["checker."+name+".reports"] = metric{float64(n.checkerReports[name]) / ops, "count"}
	}
	for _, name := range derivedNames {
		m["checker."+name+".derive_s"] = metric{perOp(byName["checker."+name+".derive"]), "s"}
	}

	if err := tr.rec.writeChrome(filepath.Join(tr.cfg.dir, "trace.json")); err != nil {
		return nil, err
	}
	if err := tr.rec.writeLayerTable(filepath.Join(tr.cfg.dir, "layers.tsv"), self, tr.ops); err != nil {
		return nil, err
	}
	fmt.Printf("# traced %s: %d operations (guard included), %d spans; trace and layer table in %s\n",
		tr.cfg.workload, tr.ops, len(tr.rec.spans), tr.cfg.dir)
	fmt.Printf("# tracing overhead: %.6f s per operation for %d spans; trace.latency_p50_s is the traced counterpart of latency_p50_s\n",
		tr.overhead.Seconds(), len(tr.rec.spans)/tr.ops)
	if tr.t.firstFailure != "" {
		fmt.Printf("# first failure: %s\n", tr.t.firstFailure)
	}
	return &result{Correct: tr.t.failed == 0, Attempted: tr.t.attempted, Failed: tr.t.failed, Metrics: m}, nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
