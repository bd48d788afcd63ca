package dist

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"deviant/internal/core"
	"deviant/internal/cparse"
	"deviant/internal/fault"
	"deviant/internal/obs"
	"deviant/internal/snapshot"
)

// Deterministic causes for fleet-level quarantine records. Transport
// error strings carry addresses and ports, which would make Degraded
// output differ run to run; a lost unit always quarantines with one of
// these fixed strings instead.
const (
	// causeLost marks a unit whose worker died and whose re-scatter to a
	// survivor also failed (or no survivor existed).
	causeLost = "worker shard unreachable after re-scatter"
	// causeCorrupt marks a partial whose token payload failed its
	// checksum or decode.
	causeCorrupt = "corrupt shard partial"
	// causeMissing marks a unit a worker neither returned nor
	// quarantined — a malformed response, contained per-unit.
	causeMissing = "shard partial missing from worker response"
)

// fleetStage is the Stage on fleet-level quarantine records.
const fleetStage = "fleet"

// ShardCaller scatters one shard request to one worker. internal/client
// implements it over HTTP (deviantd dials it with retries off, so the
// shard transport's own retries are the only ones); tests implement it
// in-process.
type ShardCaller interface {
	Shard(ctx context.Context, req *ShardRequest, requestID string) (*ShardResponse, error)
}

// Worker is one member of the fleet. Name is its stable identity on the
// hash ring — placement depends on it, so renaming a worker moves its
// arc (deviantd uses the worker URL).
type Worker struct {
	Name   string
	Caller ShardCaller
}

// Coordinator shards analyses across a worker fleet and merges the
// partials deterministically. Safe for concurrent use. Membership is
// epoch-versioned: every Run snapshots one immutable view, and
// evictions, re-admissions and SetWorkers publish a successor view
// without disturbing in-flight runs.
type Coordinator struct {
	m *fleetMetrics

	mu     sync.Mutex
	view   *view
	status map[string]*workerState
	tc     TransportConfig
}

// NewCoordinator builds a coordinator over the given fleet. Worker
// names must be non-empty and unique.
func NewCoordinator(workers []Worker) (*Coordinator, error) {
	v, err := buildView(workers, 1, nil)
	if err != nil {
		return nil, err
	}
	status := make(map[string]*workerState, len(v.workers))
	for _, w := range v.workers {
		status[w.Name] = &workerState{healthy: true}
	}
	return &Coordinator{view: v, status: status, tc: defaultTransport()}, nil
}

// Size returns the configured fleet size at the current epoch.
func (c *Coordinator) Size() int { return len(c.currentView().workers) }

// fleetMetrics instruments scatter behavior; all fields nil-safe via
// the Coordinator's guard on c.m.
type fleetMetrics struct {
	reg          *obs.Registry // retained for federation and lazy per-worker series
	rescatters   *obs.Counter
	lost         *obs.Counter
	retries      *obs.Counter
	hedges       *obs.Counter
	hedgeWins    *obs.Counter
	evictions    *obs.Counter
	readmissions *obs.Counter
	healthy      *obs.Gauge
	epoch        *obs.Gauge
	size         *obs.Gauge
}

// scatterHist returns the scatter-latency histogram for one worker,
// created on first use: membership is dynamic, so per-worker series
// cannot be enumerated at registration time.
func (m *fleetMetrics) scatterHist(name string) *obs.Histogram {
	if m == nil || m.reg == nil {
		return nil
	}
	return m.reg.Histogram("deviantd_fleet_scatter_seconds",
		"Wall clock of one shard scatter to one worker.",
		obs.LatencyBuckets, obs.L("worker", name))
}

// RegisterMetrics wires fleet instrumentation into reg: per-worker
// scatter latency histograms (created lazily as members appear),
// counters for re-scattered/lost units, transport retries and hedges,
// membership churn, and gauges for fleet size, membership epoch and
// the healthy worker count.
func (c *Coordinator) RegisterMetrics(reg *obs.Registry) {
	m := &fleetMetrics{reg: reg}
	m.rescatters = reg.Counter("deviantd_fleet_rescattered_units_total",
		"Units re-scattered to a survivor after their worker failed.")
	m.lost = reg.Counter("deviantd_fleet_lost_units_total",
		"Units quarantined because no worker could serve them.")
	m.retries = reg.Counter("deviantd_fleet_shard_retries_total",
		"Shard call attempts beyond the first, per worker call.")
	m.hedges = reg.Counter("deviantd_fleet_shard_hedges_total",
		"Hedged shard calls launched against straggling workers.")
	m.hedgeWins = reg.Counter("deviantd_fleet_shard_hedge_wins_total",
		"Hedged shard calls that beat the primary worker.")
	m.evictions = reg.Counter("deviantd_fleet_evictions_total",
		"Members evicted from placement after failed calls or probes.")
	m.readmissions = reg.Counter("deviantd_fleet_readmissions_total",
		"Evicted members re-admitted to placement after recovery.")
	m.healthy = reg.Gauge("deviantd_fleet_healthy_workers",
		"Workers that answered the most recent scatter.")
	m.epoch = reg.Gauge("deviantd_fleet_epoch",
		"Current membership epoch; bumps on any eviction, re-admission or reload.")
	m.size = reg.Gauge("deviantd_fleet_workers",
		"Configured fleet size.")
	c.mu.Lock()
	c.m = m
	m.size.Set(float64(len(c.view.workers)))
	m.epoch.Set(float64(c.view.epoch))
	c.setHealthyGaugeLocked()
	c.mu.Unlock()
}

// shardResult is one worker's round outcome.
type shardResult struct {
	resp *ShardResponse
	err  error
}

// Run analyzes srcs across the fleet: place each sorted translation
// unit on the ring by content digest, scatter shard requests in
// parallel, re-scatter a failed worker's units to survivors once, fold
// the partials back in sorted unit order and run the global half of the
// pipeline locally. Output is byte-identical to a single-process run
// for any fleet shape; unit loss degrades the result with deterministic
// quarantine records instead of failing it. opts configures the global
// half exactly as it would a single-process run (its Snapshot field is
// ignored — frontend caching lives on the workers).
func (c *Coordinator) Run(ctx context.Context, srcs map[string]string, opts core.Options, requestID string) (*core.Result, error) {
	units := make([]string, 0, len(srcs))
	for name := range srcs {
		if strings.HasSuffix(name, ".c") {
			units = append(units, name)
		}
	}
	sort.Strings(units)
	if len(units) == 0 {
		return nil, errors.New("dist: no translation units")
	}
	feStart := time.Now()
	tr := opts.Tracer
	journal := opts.Journal

	// Snapshot one membership view for the whole run: placement below is
	// a pure function of (this epoch's member set, unit digests), so the
	// run's output bytes are pinned per epoch no matter what the prober
	// or a SetWorkers reload does concurrently.
	v := c.currentView()
	journalMembership(journal, v)

	// Place each unit on the ring, steering around members currently
	// evicted. Evicted-set placement is exactly the re-scatter placement
	// (ownerExcluding), so it cannot change output bytes — placement only
	// decides which caches warm and how long the run takes. With every
	// member evicted, fall back to normal placement and let
	// re-scatter/quarantine sort it out.
	owner := make(map[string]string, len(units))
	for _, u := range units {
		d := unitDigest(srcs[u])
		o := ""
		if len(v.down) > 0 {
			o = v.ring.ownerExcluding(d, v.down)
		}
		if o == "" {
			o = v.ring.owner(d)
		}
		owner[u] = o
	}
	// Group per worker; iterating units in sorted order keeps every
	// shard's unit list sorted too.
	assign := make(map[string][]string)
	for _, u := range units {
		assign[owner[u]] = append(assign[owner[u]], u)
	}
	journalPlacement(journal, "placement", assign)
	shardOpts := ShardOptions{NoPrune: opts.DisableCrashPruning, Trace: tr != nil}

	scatter := func(assign map[string][]string, round string) map[string]shardResult {
		out := make(map[string]shardResult, len(assign))
		var mu sync.Mutex
		var wg sync.WaitGroup
		for name, shard := range assign {
			wg.Add(1)
			go func(name string, shard []string) {
				defer wg.Done()
				req := &ShardRequest{Sources: srcs, Units: shard, Options: shardOpts}
				journal.Event("shard_sent",
					obs.A("worker", name), obs.A("units", strconv.Itoa(len(shard))), obs.A("round", round))
				sp := tr.Start("scatter", obs.A("worker", name), obs.A("units", strconv.Itoa(len(shard))))
				send := tr.Elapsed()
				t0 := time.Now()
				resp, err := c.callShard(ctx, v, name, req, requestID, journal)
				rtt := time.Since(t0)
				sp.End()
				if h := c.m.scatterHist(name); h != nil {
					h.Observe(rtt.Seconds())
				}
				c.noteScatter(name, rtt, err)
				if err == nil && resp != nil {
					if resp.Trace != nil {
						// Symmetric-delay offset estimate: the worker's tracer
						// ran for DurNs of the rtt window, so its start sits
						// roughly half the residual delay after our send mark.
						offset := send + (rtt-time.Duration(resp.Trace.DurNs))/2
						if offset < 0 {
							offset = 0
						}
						tr.ImportProcess(name, offset, resp.Trace)
					}
					c.federate(name, resp.Metrics)
					journal.Event("shard_returned",
						obs.A("worker", name), obs.A("partials", strconv.Itoa(len(resp.Partials))),
						obs.A("quarantined", strconv.Itoa(len(resp.Quarantined))), obs.A("round", round))
				} else {
					// No transport detail in the journal: error strings carry
					// addresses, which would vary run to run.
					journal.Event("shard_failed",
						obs.A("worker", name), obs.A("units", strconv.Itoa(len(shard))), obs.A("round", round))
				}
				mu.Lock()
				out[name] = shardResult{resp: resp, err: err}
				mu.Unlock()
			}(name, shard)
		}
		wg.Wait()
		return out
	}

	round1 := scatter(assign, "1")
	dead := make(map[string]bool)
	for name, r := range round1 {
		if r.err != nil {
			dead[name] = true
		}
	}

	// Re-scatter a dead worker's units to the workers that would own
	// them had the dead ones never joined — once. Units that still have
	// nowhere to go are lost (quarantined below, never fatal).
	var lost []string
	var round2 map[string]shardResult
	retry := make(map[string][]string)
	if len(dead) > 0 {
		// A context already past its deadline means every call failed
		// for the run's own reasons, not the workers'; that is the
		// single-process timeout path, an error, not degradation.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Exclude this run's dead workers and the epoch's evicted set:
		// a unit must not re-scatter onto a member placement was already
		// steering around.
		excl := make(map[string]bool, len(dead)+len(v.down))
		for name := range dead {
			excl[name] = true
		}
		for name := range v.down {
			excl[name] = true
		}
		for _, u := range units {
			if !dead[owner[u]] {
				continue
			}
			alt := v.ring.ownerExcluding(unitDigest(srcs[u]), excl)
			if alt == "" {
				lost = append(lost, u)
				continue
			}
			retry[alt] = append(retry[alt], u)
		}
		if c.m != nil {
			for _, shard := range retry {
				c.m.rescatters.Add(float64(len(shard)))
			}
		}
		journalPlacement(journal, "rescatter", retry)
		round2 = scatter(retry, "2")
		for name, r := range round2 {
			if r.err != nil {
				lost = append(lost, retry[name]...)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if c.m != nil {
		c.m.healthy.Set(float64(len(v.workers) - len(dead)))
		c.m.lost.Add(float64(len(lost)))
	}

	// Gather: index partials by unit, pool worker quarantine records and
	// stats. Map iteration order is irrelevant — units never overlap
	// across responses, records are canonicalized downstream, and the
	// pooled counters are sums.
	partials := make(map[string]*UnitPartial, len(units))
	covered := make(map[string]bool)
	var pre []fault.Record
	panics := 0
	var snapAgg snapshot.RunStats
	gather := func(rs map[string]shardResult) {
		for _, r := range rs {
			if r.err != nil || r.resp == nil {
				continue
			}
			for i := range r.resp.Partials {
				p := &r.resp.Partials[i]
				partials[p.Unit] = p
			}
			for _, rec := range r.resp.Quarantined {
				covered[rec.Unit] = true
			}
			pre = append(pre, r.resp.Quarantined...)
			panics += r.resp.Panics
			if r.resp.Snapshot.Enabled {
				snapAgg.Enabled = true
			}
			snapAgg.UnitsReused += r.resp.Snapshot.UnitsReused
			snapAgg.UnitsParsed += r.resp.Snapshot.UnitsParsed
			snapAgg.GraphsReused += r.resp.Snapshot.GraphsReused
			snapAgg.GraphsBuilt += r.resp.Snapshot.GraphsBuilt
		}
	}
	gather(round1)
	gather(round2)
	lostSet := make(map[string]bool, len(lost))
	for _, u := range lost {
		lostSet[u] = true
		pre = append(pre, fault.Record{Stage: fleetStage, Unit: u, Cause: causeLost})
	}

	// Merge: verify, decode and reparse every partial concurrently into
	// its sorted slot. Reparsing tokens reproduces each unit's tree
	// exactly (the snapshot disk tier's pinned property), so from here
	// on the run is indistinguishable from one whose frontend ran
	// locally.
	parsed := make([]core.ParsedUnit, len(units))
	causes := make([]string, len(units))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	eachIndex(workers, len(units), func(i int) {
		u := units[i]
		parsed[i].Name = u
		if lostSet[u] {
			return
		}
		p, ok := partials[u]
		if !ok {
			if !covered[u] && !covered["*"] {
				causes[i] = causeMissing
			}
			return
		}
		toks, err := decodeTokens(p.Tokens, p.Sum)
		if err != nil {
			causes[i] = causeCorrupt
			return
		}
		f, _ := cparse.ParseFile(u, toks)
		if f == nil {
			causes[i] = causeCorrupt
			return
		}
		var errs []error
		for _, s := range p.Errs {
			errs = append(errs, errors.New(s))
		}
		parsed[i] = core.ParsedUnit{Name: u, File: f, ParseErrors: errs, Lines: p.Lines}
	})
	var ppNs, parseNs int64
	for i := range units {
		if causes[i] != "" {
			pre = append(pre, fault.Record{Stage: fleetStage, Unit: units[i], Cause: causes[i]})
		}
		if p, ok := partials[units[i]]; ok && parsed[i].File != nil {
			ppNs += p.PreprocessNs
			parseNs += p.ParseNs
		}
	}
	feDur := time.Since(feStart)

	journal.Event("merge",
		obs.A("units", strconv.Itoa(len(units))),
		obs.A("lost", strconv.Itoa(len(lost))),
		obs.A("workers_dead", strconv.Itoa(len(dead))))
	opts.Snapshot = nil
	res, err := core.New(opts, nil).AnalyzeParsed(parsed, pre, panics)
	if err != nil {
		return nil, err
	}
	res.Snapshot = snapAgg
	res.Timing.Preprocess = time.Duration(ppNs)
	res.Timing.Parse = time.Duration(parseNs)
	res.Timing.Frontend = feDur
	return res, nil
}

// eachIndex runs fn(0..n-1) on up to workers goroutines (inline when
// workers <= 1), with dynamic handout so slow items don't gate a shard.
func eachIndex(workers, n int, fn func(int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
