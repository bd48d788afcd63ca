// Command deviantd serves the belief-inference checkers over HTTP as a
// long-running daemon with content-addressed incremental re-analysis:
// repeated requests over near-identical source trees re-run the frontend
// only for the units whose transitive input closure changed, while the
// ranked output stays byte-identical to a cold run.
//
// Usage:
//
//	deviantd [flags]
//
// Flags:
//
//	-addr a       listen address (default :8477)
//	-j N          worker-goroutine ceiling per request (0 = all CPUs);
//	              requests may ask for fewer via options.workers
//	-concurrent N analyses running at once, sync requests and async jobs
//	              alike (default 2)
//	-queue N      requests allowed to wait beyond the running ones before
//	              new ones get 429 (default 8)
//	-timeout d    per-request budget: the wait for a run slot plus the
//	              analysis (default 60s); a run that reaches it answers
//	              with its partial result flagged degraded, and only a
//	              request still waiting for a slot gets 504
//	-job-queue N  async jobs allowed to wait across all tenants before
//	              POST /v1/jobs answers 429 (default 16)
//	-jobs-per-tenant N  one tenant's in-flight job cap, queued plus
//	              running (default 4)
//	-snapshot N   snapshot store capacity in translation units
//	              (default 1024; higher = more reuse, more memory)
//	-cache-dir d  persist snapshot artifacts under this directory so a
//	              restarted daemon starts warm; entries are checksummed
//	              and corrupt ones are evicted and recomputed (empty =
//	              memory-only caching)
//	-job-dir d    persist every async job to a crash-safe log under this
//	              directory: a restarted daemon re-admits queued jobs,
//	              re-runs ones that were mid-flight, and serves completed
//	              results byte-identically (empty = jobs die with the
//	              process)
//	-debug-addr a also serve net/http/pprof on this address (off by
//	              default; bind to localhost, it is unauthenticated)
//	-role r       standalone (default), worker, or coordinator; worker
//	              and coordinator are the two halves of a fleet
//	              (DESIGN.md §12)
//	-workers-list comma-separated worker base URLs; implies
//	              -role coordinator and is rejected with -role worker
//	-workers-file file of worker base URLs (newline/comma-separated,
//	              # comments); like -workers-list but reloaded on SIGHUP,
//	              so the fleet can shrink or grow without a restart
//	-shard-timeout d  per-shard-call budget on the coordinator; a call
//	              that outlives it is retried (0 = the run's deadline)
//	-shard-retries N  shard-call retries after the first attempt
//	              (default 1); exhausted retries quarantine the shard's
//	              units, they never fail the run
//	-hedge d      after d with no shard response, race a hedged copy of
//	              the call to the next ring owner and take whichever
//	              valid response lands first (0 = off)
//	-chaos s      arm network failpoints on the shard transport from a
//	              spec like "drop|w1|1,delay|w2|5ms" (action|substr|param;
//	              testing only — the daemon then misbehaves on purpose)
//	-journal f    append one JSONL event per run-journal entry (run
//	              start, placement, shard lifecycle, quarantine, rank)
//	              to f, each line keyed by the run's request id
//	-probe d      (coordinator) probe worker /healthz+/metrics every d,
//	              driving the healthy-worker gauge, /v1/fleet/status and
//	              fleet_* federated metrics between runs (0 = off)
//	-version      print build identity (the same debug.ReadBuildInfo
//	              record /healthz serves) and exit
//
// Endpoints: POST /v1/analyze (?trace=1 embeds a Chrome trace of the
// run; shards across the fleet under -workers-list, and in that mode
// the trace stitches every worker's spans in as its own process lane),
// POST /v1/shard (the worker half of a distributed run), POST /v1/diff,
// GET /v1/rules, POST /v1/jobs + GET /v1/jobs/{id}[/result] + DELETE
// /v1/jobs/{id} (the async multi-tenant job API: queued analyses with
// per-tenant quotas and fair scheduling, results byte-identical to the
// synchronous path), GET /v1/fleet/status (coordinator mode: ring +
// per-worker health/build), POST /v1/fleet/workers (coordinator mode:
// replace the worker set in place — the response carries the new
// membership epoch), GET /healthz (liveness + build info),
// GET /metrics (Prometheus text, including go_* runtime self-metrics
// and fleet_* federated worker series on a coordinator) — see package
// deviant/internal/service.
//
// The daemon logs one JSON line per request to stderr (log/slog): request
// id, method, path, status, and duration. The same id appears on the
// "request" span of a ?trace=1 trace, tying logs to traces.
//
// On SIGTERM or SIGINT the daemon drains: /healthz flips to 503 so load
// balancers stop routing here, new analyses and job submissions are
// refused, already-accepted jobs run to completion, and the process
// exits once in-flight requests and jobs finish (or after the drain
// deadline, which cancels whatever is still pending).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"deviant/internal/client"
	"deviant/internal/dist"
	"deviant/internal/fault"
	"deviant/internal/obs"
	"deviant/internal/service"
)

// fleetDialer caches one HTTP client per worker URL. Live membership
// updates (SIGHUP, POST /v1/fleet/workers) reuse the cached client —
// and its pooled connections — for retained workers, and drain releases
// every socket the daemon ever dialed. The clients never retry: the
// coordinator's shard transport (-shard-retries, -hedge) is the only
// retry layer, so a failing worker costs 1 + -shard-retries attempts.
type fleetDialer struct {
	mu      sync.Mutex
	clients map[string]*client.Client
}

func newFleetDialer() *fleetDialer {
	return &fleetDialer{clients: make(map[string]*client.Client)}
}

func (d *fleetDialer) dial(name string) dist.ShardCaller {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.clients[name]
	if !ok {
		c = client.New(name, client.WithMaxRetries(0))
		d.clients[name] = c
	}
	return c
}

func (d *fleetDialer) closeAll() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
}

// splitWorkerList splits a comma- or whitespace-separated worker URL
// list, dropping empties; # starts a comment that runs to the end of
// its line (for the file form).
func splitWorkerList(s string) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, raw := range strings.FieldsFunc(line, func(r rune) bool {
			return r == ',' || r == '\r' || r == '\t' || r == ' '
		}) {
			if u := strings.TrimSpace(raw); u != "" {
				out = append(out, u)
			}
		}
	}
	return out
}

// buildWorkers maps URLs onto dist.Workers through the dialer cache
// (worker name = its URL, so ring placement is stable across
// coordinator restarts).
func buildWorkers(d *fleetDialer, urls []string) []dist.Worker {
	workers := make([]dist.Worker, 0, len(urls))
	for _, u := range urls {
		workers = append(workers, dist.Worker{Name: u, Caller: d.dial(u)})
	}
	return workers
}

// readWorkersFile loads the -workers-file member list: one or more
// worker URLs separated by newlines, commas or spaces; # starts a
// comment that runs to the end of its line.
func readWorkersFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	urls := splitWorkerList(string(data))
	if len(urls) == 0 {
		return nil, fmt.Errorf("%s lists no workers", path)
	}
	return urls, nil
}

// armChaos parses and arms a -chaos spec: comma-separated entries of
// the form action|substr[|param], armed on the shard transport
// failpoint. action is drop, delay, corrupt, truncate or duplicate;
// substr selects workers by name substring; param is a duration for
// delay ("delay|w1|5ms", with an optional fourth |N budget) and a
// fire-count budget for the rest ("drop|w2|3", 0 or absent = every
// call).
func armChaos(spec string) error {
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, "|")
		if len(parts) < 2 {
			return fmt.Errorf("chaos entry %q: want action|substr[|param]", entry)
		}
		var f fault.NetFault
		switch parts[0] {
		case "drop":
			f.Action = fault.NetDrop
		case "delay":
			f.Action = fault.NetDelay
		case "corrupt":
			f.Action = fault.NetCorrupt
		case "truncate":
			f.Action = fault.NetTruncate
		case "duplicate":
			f.Action = fault.NetDuplicate
		default:
			return fmt.Errorf("chaos entry %q: unknown action %q", entry, parts[0])
		}
		if f.Action == fault.NetDelay {
			if len(parts) < 3 {
				return fmt.Errorf("chaos entry %q: delay needs a duration", entry)
			}
			d, err := time.ParseDuration(parts[2])
			if err != nil || d <= 0 {
				return fmt.Errorf("chaos entry %q: bad duration %q", entry, parts[2])
			}
			f.Delay = d
			if len(parts) > 3 {
				n, err := strconv.Atoi(parts[3])
				if err != nil || n < 0 {
					return fmt.Errorf("chaos entry %q: bad budget %q", entry, parts[3])
				}
				f.Times = n
			}
		} else if len(parts) > 2 && parts[2] != "" {
			n, err := strconv.Atoi(parts[2])
			if err != nil || n < 0 {
				return fmt.Errorf("chaos entry %q: bad budget %q", entry, parts[2])
			}
			f.Times = n
		}
		fault.ArmNet(dist.NetPoint, parts[1], f)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("deviantd: ")

	addr := flag.String("addr", ":8477", "listen address")
	workers := flag.Int("j", 0, "worker-goroutine ceiling per request (0 = all CPUs)")
	concurrent := flag.Int("concurrent", 0, "analyses running at once, sync and jobs alike (0 = 2)")
	queue := flag.Int("queue", 0, "waiting requests beyond the running ones (0 = 8)")
	timeout := flag.Duration("timeout", 0, "per-request budget; a run that reaches it returns partial results flagged degraded (0 = 60s)")
	jobQueue := flag.Int("job-queue", 0, "async jobs waiting across all tenants (0 = 16)")
	jobsPerTenant := flag.Int("jobs-per-tenant", 0, "one tenant's in-flight job cap (0 = 4)")
	snapshotUnits := flag.Int("snapshot", 0, "snapshot store capacity in units (0 = 1024)")
	cacheDir := flag.String("cache-dir", "", "persistent snapshot cache directory (empty = memory only)")
	jobDir := flag.String("job-dir", "", "persist async jobs under this directory so a restart recovers them (empty = in-memory only)")
	drainWait := flag.Duration("drain", 30*time.Second, "max wait for in-flight requests on shutdown")
	debugAddr := flag.String("debug-addr", "", "also serve net/http/pprof on this address (off when empty)")
	role := flag.String("role", "", "standalone (empty), worker, or coordinator")
	workersList := flag.String("workers-list", "", "comma-separated worker base URLs (coordinator mode)")
	workersFile := flag.String("workers-file", "", "file listing worker base URLs, reloaded on SIGHUP (coordinator mode)")
	shardTimeout := flag.Duration("shard-timeout", 0, "per-shard-call budget on the coordinator (0 = the run's whole deadline)")
	shardRetries := flag.Int("shard-retries", 1, "shard-call retries after the first attempt")
	hedge := flag.Duration("hedge", 0, "send a hedged shard call to the next ring owner after this long (0 = off)")
	chaos := flag.String("chaos", "", "arm network failpoints on the shard transport, e.g. drop|w1|1,delay|w2|5ms (testing only)")
	journalPath := flag.String("journal", "", "append per-run JSONL journal events to this file (empty = off)")
	probeEvery := flag.Duration("probe", 0, "worker health-probe interval in coordinator mode (0 = off)")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()
	if *version {
		b := obs.BuildInfo()
		dirty := ""
		if b.Dirty {
			dirty = " (dirty)"
		}
		fmt.Printf("deviantd %s %s %s%s\n", b.Version, b.GoVersion, b.Revision, dirty)
		return
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: deviantd [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	switch *role {
	case "", "worker", "coordinator":
	default:
		log.Fatalf("unknown -role %q (want worker or coordinator)", *role)
	}
	if *workersList != "" && *workersFile != "" {
		log.Fatal("-workers-list and -workers-file are mutually exclusive")
	}
	if *role == "worker" && (*workersList != "" || *workersFile != "") {
		// A worker scattering to other workers would re-shard recursively;
		// the topology is one coordinator fanning out to leaf workers.
		log.Fatal("-role worker cannot take a worker list: workers serve shards, they do not scatter them")
	}
	if *role == "coordinator" && *workersList == "" && *workersFile == "" {
		log.Fatal("-role coordinator requires -workers-list or -workers-file")
	}

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	var coord *dist.Coordinator
	var dialer *fleetDialer
	closeFleet := func() {}
	if *workersList != "" || *workersFile != "" {
		urls := splitWorkerList(*workersList)
		if *workersFile != "" {
			var err error
			urls, err = readWorkersFile(*workersFile)
			if err != nil {
				log.Fatalf("workers-file: %v", err)
			}
		}
		dialer = newFleetDialer()
		var err error
		coord, err = dist.NewCoordinator(buildWorkers(dialer, urls))
		if err != nil {
			log.Fatalf("worker list: %v", err)
		}
		closeFleet = dialer.closeAll
		coord.SetTransport(dist.TransportConfig{
			CallTimeout: *shardTimeout,
			Retries:     *shardRetries,
			HedgeAfter:  *hedge,
		})
		logger.Info("coordinator mode", "workers", coord.Size(), "epoch", coord.Epoch())
	}
	if *chaos != "" {
		if err := armChaos(*chaos); err != nil {
			log.Fatalf("chaos: %v", err)
		}
		logger.Warn("network chaos faults armed; this daemon will misbehave on purpose", "spec", *chaos)
	}
	// io.Writer-typed so an unset flag leaves the interface nil (a nil
	// *os.File in an io.Writer would read as journaling-on).
	var journalWriter io.Writer
	if *journalPath != "" {
		f, err := os.OpenFile(*journalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("journal: %v", err)
		}
		defer f.Close()
		journalWriter = f
		logger.Info("journaling runs", "file", *journalPath)
	}
	cfg := service.Config{
		MaxWorkers:    *workers,
		MaxConcurrent: *concurrent,
		QueueDepth:    *queue,
		Timeout:       *timeout,
		JobQueueDepth: *jobQueue,
		JobsPerTenant: *jobsPerTenant,
		SnapshotUnits: *snapshotUnits,
		CacheDir:      *cacheDir,
		JobDir:        *jobDir,
		Logger:        logger,
		Coordinator:   coord,
		JournalWriter: journalWriter,
	}
	if dialer != nil {
		cfg.WorkerDialer = dialer.dial
	}
	srv := service.New(cfg)
	stopProber := func() {}
	if coord != nil && *probeEvery > 0 {
		stopProber = coord.StartProber(*probeEvery)
		logger.Info("probing workers", "interval", probeEvery.String())
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	if *debugAddr != "" {
		// An explicit mux rather than http.DefaultServeMux: pprof is only
		// ever reachable on the opt-in debug address, never on -addr.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)

	var sig os.Signal
wait:
	for {
		select {
		case err := <-errc:
			log.Fatal(err)
		case sig = <-sigc:
			if sig != syscall.SIGHUP {
				break wait
			}
			// SIGHUP reloads -workers-file in place: the next run sees the
			// new member set under a bumped epoch; runs already in flight
			// keep the view they pinned at scatter time.
			if coord == nil || *workersFile == "" {
				logger.Info("ignoring SIGHUP: no -workers-file to reload")
				continue
			}
			urls, err := readWorkersFile(*workersFile)
			if err != nil {
				logger.Warn("workers-file reload failed, keeping current fleet", "err", err.Error())
				continue
			}
			if err := coord.SetWorkers(buildWorkers(dialer, urls)); err != nil {
				logger.Warn("workers-file reload rejected, keeping current fleet", "err", err.Error())
				continue
			}
			logger.Info("fleet workers reloaded", "workers", coord.Size(), "epoch", coord.Epoch())
		}
	}
	logger.Info("draining", "signal", sig.String(), "max_wait", drainWait.String())
	srv.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Jobs drain first: accepted jobs run to completion (the drain
	// deadline cancels stragglers), and only then does the HTTP
	// listener close — a poller can still fetch its job's result
	// until the very end of the drain window.
	if err := srv.StopJobs(ctx); err != nil {
		logger.Warn("job drain incomplete, pending jobs canceled", "err", err.Error())
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
	stopProber()
	closeFleet()
	st := srv.Store().Stats()
	logger.Info("drained", "snapshot_unit_hits", st.UnitHits, "snapshot_unit_misses", st.UnitMisses)
}
