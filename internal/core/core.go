// Package core wires the full analysis pipeline together: preprocess,
// parse, index, build CFGs (with crash-path pruning), run the selected
// checkers down every path, and collect ranked reports. It is the
// internal engine behind the public deviant package.
package core

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"deviant/internal/cast"
	"deviant/internal/cfg"
	"deviant/internal/checkers/fail"
	"deviant/internal/checkers/freecheck"
	"deviant/internal/checkers/intr"
	"deviant/internal/checkers/iserr"
	"deviant/internal/checkers/lockvar"
	"deviant/internal/checkers/null"
	"deviant/internal/checkers/pairing"
	"deviant/internal/checkers/redundant"
	"deviant/internal/checkers/retconv"
	"deviant/internal/checkers/reverse"
	"deviant/internal/checkers/seccheck"
	"deviant/internal/checkers/userptr"
	"deviant/internal/cpp"
	"deviant/internal/csem"
	"deviant/internal/engine"
	"deviant/internal/fault"
	"deviant/internal/latent"
	"deviant/internal/obs"
	"deviant/internal/report"
	"deviant/internal/snapshot"
	"deviant/internal/stats"
)

// Checks selects which checkers run.
type Checks struct {
	Null      bool
	Free      bool
	UserPtr   bool
	IsErr     bool
	Fail      bool
	LockVar   bool
	Pairing   bool
	Intr      bool
	SecCheck  bool
	Reverse   bool
	RetConv   bool
	Redundant bool
}

// AllChecks enables everything.
func AllChecks() Checks {
	return Checks{Null: true, Free: true, UserPtr: true, IsErr: true, Fail: true,
		LockVar: true, Pairing: true, Intr: true, SecCheck: true, Reverse: true,
		RetConv: true, Redundant: true}
}

// ParseChecks parses a comma-separated checker subset ("null,fail,..."),
// the format shared by deviant's -checkers flag and deviantd's request
// options. Empty and blank elements are ignored; an unknown name is an
// error naming the offender.
func ParseChecks(s string) (Checks, error) {
	var c Checks
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(name) {
		case "null":
			c.Null = true
		case "free":
			c.Free = true
		case "userptr":
			c.UserPtr = true
		case "iserr":
			c.IsErr = true
		case "fail":
			c.Fail = true
		case "lockvar":
			c.LockVar = true
		case "pairing":
			c.Pairing = true
		case "intr":
			c.Intr = true
		case "seccheck":
			c.SecCheck = true
		case "reverse":
			c.Reverse = true
		case "retconv":
			c.RetConv = true
		case "redundant":
			c.Redundant = true
		case "":
		default:
			return Checks{}, fmt.Errorf("unknown checker %q", strings.TrimSpace(name))
		}
	}
	return c, nil
}

// Options configures a run.
type Options struct {
	Checks Checks
	// IncludeDirs are searched by #include (default: "include").
	IncludeDirs []string
	// Defines are predefined macros (as with -D).
	Defines map[string]string
	// P0 is the expected example probability for z ranking.
	P0 float64
	// MinPairExamples is the evidence floor for reporting pair
	// violations.
	MinPairExamples int
	// MinPairScore is the z+boost floor below which pair violations are
	// derived but not reported.
	MinPairScore float64
	// Memoize controls engine state memoization (ablation knob).
	Memoize bool
	// DisableCrashPruning keeps panic/BUG paths alive (ablation knob).
	DisableCrashPruning bool
	// NullConfig overrides the null checker configuration.
	NullConfig *null.Config
	// Workers bounds pipeline concurrency: translation units are
	// preprocessed and parsed concurrently, CFGs build concurrently, and
	// each checker runs over contiguous shards of the function list on
	// this many goroutines. Results are merged in shard order, so output
	// is identical for every worker count. Zero or negative means
	// runtime.NumCPU(); 1 forces the fully serial path.
	Workers int
	// Snapshot, when non-nil, caches per-unit frontend artifacts (parse
	// trees, diagnostics, per-function CFGs) across runs keyed by
	// transitive content digest. Units whose full input closure is
	// unchanged skip preprocessing, parsing and CFG construction; the
	// semantic index, every checker, rule derivation and ranking still run
	// globally, so warm output is byte-identical to a cold run.
	Snapshot *snapshot.Store
	// Tracer, when non-nil, records one span per pipeline stage, per
	// translation unit (with nested preprocess/parse/include spans), per
	// function CFG build, per checker, per rule derivation, and per
	// engine traversal — exportable as Chrome trace-event JSON. Nil (the
	// default) disables tracing entirely: instrumentation sites reduce to
	// a pointer check, and no clock reads happen. Tracing never feeds
	// back into analysis, so output stays byte-identical with or without
	// it, for any worker count.
	Tracer *obs.Tracer
	// Journal, when non-nil, receives structured run-provenance events
	// (quarantines from core; placement/shard lifecycle/merge from the
	// coordinator; run start/rank from the serving layer) as JSONL.
	// Like Tracer it is write-only telemetry: journal output never
	// feeds back into analysis, so it cannot perturb determinism.
	Journal *obs.Journal
	// VisitBudget, when positive, is a hard per-function visit ceiling
	// for every path-sensitive checker: a function that hits it is
	// quarantined for that checker (its reports dropped, the overrun
	// recorded) instead of silently truncated. Zero keeps the legacy
	// behavior — the engine's soft DefaultMaxVisits truncation with no
	// quarantine. Visit counts are a pure function of the input for a
	// fixed Memoize setting, so budget quarantines are deterministic
	// across worker counts.
	VisitBudget int
	// UnitDeadline, when positive, bounds per-unit wall clock: a
	// translation unit whose frontend work exceeds it, or a function
	// whose engine traversal exceeds it, is quarantined through the
	// same path as a panic. Wall-clock budgets are inherently
	// machine-dependent, so this knob is off by default and excluded
	// from the determinism oracles.
	UnitDeadline time.Duration
	// Deadline, when non-zero, is the whole-run deadline (the CLI's
	// -timeout): stages stop taking new work once the clock passes it,
	// completed work is kept, and Result.DeadlineExceeded is set to
	// flag the output as partial.
	Deadline time.Time
}

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{
		Checks:          AllChecks(),
		IncludeDirs:     []string{"include"},
		P0:              stats.DefaultP0,
		MinPairExamples: 2,
		MinPairScore:    1.0,
		Memoize:         true,
	}
}

// Result is everything a run produces.
type Result struct {
	// Reports holds all checker errors, ranked.
	Reports *report.Collector
	// Fingerprints computes stable report identities against this run's
	// parsed corpus. Reports in Reports are already stamped; callers
	// that append reports after analysis (version drift) re-stamp with
	// Reports.SetFingerprints(Fingerprints).
	Fingerprints *report.Fingerprinter
	// Prog is the semantic index of the analyzed code.
	Prog *csem.Program
	// ParseErrors are non-fatal frontend diagnostics.
	ParseErrors []error

	// Derived rule instances, for the experiment tables.
	Pairs        []pairing.Pair
	CanFail      []fail.Derived
	CanFailNever []fail.Derived
	IsErrFuncs   []iserr.Derived
	LockBindings []lockvar.Binding
	IntrFuncs    []intr.Derived
	SecChecks    []seccheck.Derived
	Reversals    []reverse.Reversal

	// EngineStats aggregates traversal effort per checker name.
	EngineStats map[string]engine.RunStats

	// Functions analyzed and total source lines (scalability metrics).
	FuncCount int
	LineCount int

	// Snapshot reports what this run reused from Options.Snapshot
	// (zero-valued when no store was attached).
	Snapshot snapshot.RunStats

	// Degraded reports that some work was quarantined rather than
	// analyzed: the run completed, but Reports cover only the healthy
	// remainder. Quarantined lists one record per contained failure in
	// canonical (stage, unit, cause) order — a pure function of the
	// input, identical across worker counts.
	Degraded    bool
	Quarantined []fault.Record
	// PanicsRecovered counts worker panics converted into quarantine
	// records (budget overruns quarantine without panicking and are
	// not counted here).
	PanicsRecovered int
	// DeadlineExceeded reports that Options.Deadline cut the run
	// short; Reports are a partial view of the full analysis.
	DeadlineExceeded bool

	// Timing is the per-stage wall clock of this run.
	Timing Timing
}

// Timing records where a run spent its time, stage by stage. Frontend,
// Semantic, CFG, Total and the Checkers and Derive entries are wall
// clock; Preprocess and Parse are summed across translation units, so
// under a parallel frontend they add up to more than Frontend — the ratio
// is the frontend's effective parallelism.
type Timing struct {
	Preprocess time.Duration            // preprocessing, summed over units
	Parse      time.Duration            // parsing, summed over units
	Frontend   time.Duration            // wall clock of the whole frontend stage
	Semantic   time.Duration            // semantic indexing (serial)
	CFG        time.Duration            // CFG construction
	Checkers   map[string]time.Duration // per checker: traversal only
	Derive     map[string]time.Duration // per deriving checker: rule derivation (Finish)
	Total      time.Duration

	// TokenCacheHits / TokenCacheMisses count this run's shared
	// header-scan cache traffic: hits are file scans the cache absorbed,
	// misses are files that had to be lexed.
	TokenCacheHits   int64
	TokenCacheMisses int64
}

// String renders the timing table (the CLI's -stats output).
func (t Timing) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s  (preprocess %s + parse %s summed over units)\n",
		"frontend", t.Frontend.Round(time.Microsecond),
		t.Preprocess.Round(time.Microsecond), t.Parse.Round(time.Microsecond))
	if t.TokenCacheHits+t.TokenCacheMisses > 0 {
		fmt.Fprintf(&b, "%-12s %6d hits, %d misses (%.0f%% of file scans absorbed)\n",
			"scan-cache", t.TokenCacheHits, t.TokenCacheMisses,
			100*float64(t.TokenCacheHits)/float64(t.TokenCacheHits+t.TokenCacheMisses))
	}
	fmt.Fprintf(&b, "%-12s %12s\n", "semantic", t.Semantic.Round(time.Microsecond))
	fmt.Fprintf(&b, "%-12s %12s\n", "cfg", t.CFG.Round(time.Microsecond))
	writeStageRows(&b, t.Checkers)
	if len(t.Derive) > 0 {
		var sum time.Duration
		for _, d := range t.Derive {
			sum += d
		}
		fmt.Fprintf(&b, "%-12s %12s  (rule derivation, per checker)\n", "derive", sum.Round(time.Microsecond))
		writeStageRows(&b, t.Derive)
	}
	fmt.Fprintf(&b, "%-12s %12s\n", "total", t.Total.Round(time.Microsecond))
	return b.String()
}

// writeStageRows renders one indented row per name, sorted.
func writeStageRows(b *strings.Builder, m map[string]time.Duration) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b, "%-12s %12s\n", "  "+n, m[n].Round(time.Microsecond))
	}
}

// Analyzer runs the pipeline over a file provider.
type Analyzer struct {
	opts Options
	conv *latent.Conventions
}

// New returns an analyzer. A nil conventions argument uses the defaults.
func New(opts Options, conv *latent.Conventions) *Analyzer {
	if conv == nil {
		conv = latent.Default()
	}
	if opts.P0 == 0 {
		opts.P0 = stats.DefaultP0
	}
	if opts.MinPairExamples == 0 {
		opts.MinPairExamples = 2
	}
	if len(opts.IncludeDirs) == 0 {
		opts.IncludeDirs = []string{"include"}
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	return &Analyzer{opts: opts, conv: conv}
}

// configFingerprint hashes every option that changes frontend or CFG
// output into the snapshot cache key: include search dirs, predefined
// macros, crash-path pruning, and the latent conventions (whose crash
// routines drive pruning). Checker selection, p0 and memoization are
// deliberately excluded — they run downstream of the cached artifacts.
// Go's fmt prints maps with sorted keys, so the conventions render
// deterministically.
func (a *Analyzer) configFingerprint() string {
	defs := make([]string, 0, len(a.opts.Defines))
	for k, v := range a.opts.Defines {
		defs = append(defs, k+"="+v)
	}
	sort.Strings(defs)
	return snapshot.Fingerprint(
		"includes:"+strings.Join(a.opts.IncludeDirs, "\x01"),
		"defines:"+strings.Join(defs, "\x01"),
		fmt.Sprintf("prune:%v", !a.opts.DisableCrashPruning),
		fmt.Sprintf("conv:%+v", *a.conv),
	)
}

// AnalyzeSources is a convenience over AnalyzeFS for in-memory code: every
// ".c" key is a translation unit, everything else is includable.
func (a *Analyzer) AnalyzeSources(srcs map[string]string) (*Result, error) {
	fs := cpp.MapFS(srcs)
	var units []string
	for name := range srcs {
		if strings.HasSuffix(name, ".c") {
			units = append(units, name)
		}
	}
	sort.Strings(units)
	return a.AnalyzeFS(fs, units)
}

// AnalyzeFS preprocesses, parses and checks the given translation units.
//
// Every stage runs on Options.Workers goroutines: units go through the
// frontend concurrently (sharing a scan cache so common headers are lexed
// once per run instead of once per includer), per-function CFGs build
// concurrently, and each checker runs over contiguous shards of the
// function list with a forked accumulator and a private report collector
// per shard. Shards fold back in function order, which makes every
// counter, site list, derived table and ranked report byte-identical to
// the Workers=1 run — scheduling can reorder the work but never the
// merge.
func (a *Analyzer) AnalyzeFS(fs cpp.FileProvider, units []string) (*Result, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("core: no translation units")
	}
	start := time.Now()
	res := newResult()
	tr := a.opts.Tracer
	root := tr.Start("analyze", obs.A("units", strconv.Itoa(len(units))))
	defer root.End()

	qc := &quarantine{}
	outs := a.runFrontend(fs, units, res, qc, root, false)
	files := make([]*cast.File, 0, len(units))
	for i := range outs {
		if outs[i].readErr != nil {
			return nil, fmt.Errorf("core: %w", outs[i].readErr)
		}
		res.Timing.Preprocess += outs[i].ppDur
		res.Timing.Parse += outs[i].parse
		if outs[i].quarantined {
			// The unit contributes nothing downstream: no lines, no
			// diagnostics, no declarations. Its failure is recorded in
			// res.Quarantined.
			continue
		}
		res.LineCount += outs[i].lines
		res.ParseErrors = append(res.ParseErrors, outs[i].errs...)
		if res.Snapshot.Enabled {
			if outs[i].reused {
				res.Snapshot.UnitsReused++
			} else {
				res.Snapshot.UnitsParsed++
			}
		}
		files = append(files, outs[i].file)
	}

	// Map each parsed function to the snapshot artifact that owns it, so
	// the CFG stage can reuse and record graphs on the right cache entry.
	var owner map[*cast.FuncDecl]*snapshot.Artifact
	if a.opts.Snapshot != nil {
		owner = make(map[*cast.FuncDecl]*snapshot.Artifact, len(units))
		for i := range outs {
			if outs[i].art == nil || outs[i].file == nil {
				continue
			}
			for _, d := range outs[i].file.Decls {
				if fd, ok := d.(*cast.FuncDecl); ok && fd.Body != nil {
					owner[fd] = outs[i].art
				}
			}
		}
	}
	return a.downstream(res, qc, root, start, files, owner)
}

// downstream runs the global half of the pipeline — semantic indexing,
// CFG construction, every checker, rule derivation and ranking — over
// already-parsed files, then folds quarantine state into the final
// result. It is shared by AnalyzeFS (same-process frontend) and
// AnalyzeParsed (frontend partials merged from a worker fleet): both
// fold units in deterministic order before calling it, so its output
// depends only on the parsed input, never on which process parsed it.
// owner maps functions to the snapshot artifacts that cache their CFGs
// (nil when no store is attached).
func (a *Analyzer) downstream(res *Result, qc *quarantine, root *obs.Span, start time.Time, files []*cast.File, owner map[*cast.FuncDecl]*snapshot.Artifact) (*Result, error) {
	workers := a.opts.Workers
	tr := a.opts.Tracer
	deadline := a.opts.Deadline
	deadlinePassed := func() bool {
		return !deadline.IsZero() && time.Now().After(deadline)
	}

	t0 := time.Now()
	semSpan := root.Child("semantic")
	res.Prog = csem.Analyze(files)
	semSpan.End()
	res.Timing.Semantic = time.Since(t0)
	res.FuncCount = len(res.Prog.Funcs)

	// ---- CFGs, built once and shared by all checkers. Functions are
	// independent, so construction is embarrassingly parallel. With a
	// snapshot store, graphs built from a cached unit's tree in a previous
	// run are reused: the graph depends only on the function's AST and the
	// pruning configuration, both covered by the artifact's cache key.
	var noReturn func(string) bool
	if !a.opts.DisableCrashPruning {
		noReturn = a.conv.IsCrashRoutine
	}
	names := res.Prog.FuncNames()
	built := make([]*cfg.Graph, len(names))
	graphReused := make([]bool, len(names))
	t0 = time.Now()
	cfgSpan := root.Child("cfg")
	parallelDo(workers, len(names), func(i int) {
		if tr != nil {
			fsp := cfgSpan.Fork("cfg-func", obs.A("func", names[i]))
			defer fsp.End()
		}
		if deadlinePassed() {
			qc.stageDeadline("cfg")
			return
		}
		panicked := false
		func() {
			defer qc.recoverInto("cfg", names[i], &panicked)
			fault.Trap("cfg", names[i])
			fd := res.Prog.Funcs[names[i]]
			art := owner[fd]
			if art != nil {
				if g, ok := art.Graph(names[i]); ok {
					built[i], graphReused[i] = g, true
					return
				}
			}
			built[i] = cfg.Build(fd, cfg.Options{NoReturn: noReturn})
			if art != nil {
				art.SetGraph(names[i], built[i])
			}
		}()
		if panicked {
			built[i] = nil
		}
	})
	cfgSpan.End()
	// Functions whose CFG build was quarantined (or skipped at the run
	// deadline) drop out of the checker stage; the rest proceed.
	graphs := make(map[string]*cfg.Graph, len(names))
	checkNames := make([]string, 0, len(names))
	for i, name := range names {
		if built[i] == nil {
			continue
		}
		checkNames = append(checkNames, name)
		graphs[name] = built[i]
		if res.Snapshot.Enabled {
			if graphReused[i] {
				res.Snapshot.GraphsReused++
			} else {
				res.Snapshot.GraphsBuilt++
			}
		}
	}
	res.Timing.CFG = time.Since(t0)

	eopts := engine.Options{Memoize: a.opts.Memoize}
	if a.opts.VisitBudget > 0 {
		eopts.MaxVisits = a.opts.VisitBudget
	}
	spans := chunkSpans(len(checkNames), workers)

	// checkerSpan traces one checker's traversal. Forked (own lane): the
	// program-level checkers run concurrently with each other.
	checkerSpan := func(name string) *obs.Span {
		if tr == nil {
			return nil
		}
		return root.Fork("checker", obs.A("checker", name))
	}

	// derive runs one checker's serial rule derivation (Finish/Ranked)
	// under a derive span, timed into Timing.Derive, and under panic
	// isolation: a panic quarantines the checker's derived output instead
	// of the run.
	derive := func(name string, f func()) {
		t := time.Now()
		var dsp *obs.Span
		if tr != nil {
			dsp = root.Fork("derive", obs.A("checker", name))
		}
		defer func() {
			dsp.End()
			res.Timing.Derive[name] = time.Since(t)
		}()
		defer qc.recoverInto("checker:"+name, "*", nil)
		f()
	}

	// runEngine drives one engine checker over every function: each shard
	// gets a forked accumulator and a private collector, folded back in
	// shard order. Each function runs under panic isolation with its own
	// sub-collector; a function that panics or blows its budget is
	// quarantined — its reports dropped, the rest of the shard unharmed.
	// The failpoint fires before the traversal touches the accumulator,
	// so an injected fault never leaks partial state into derived rules.
	runEngine := func(name string, fork func() engine.Checker, merge func(engine.Checker)) {
		stage := "checker:" + name
		t := time.Now()
		chSpan := checkerSpan(name)
		defer chSpan.End()
		defer func() { res.Timing.Checkers[name] = time.Since(t) }()
		if deadlinePassed() {
			qc.stageDeadline(stage)
			return
		}
		eo := eopts
		eo.Span = chSpan
		shards := make([]engine.Checker, len(spans))
		cols := make([]*report.Collector, len(spans))
		sts := make([]engine.RunStats, len(spans))
		parallelDo(workers, len(spans), func(si int) {
			ch := fork()
			col := report.NewCollector()
			var total engine.RunStats
			// One traversal runner and one scratch collector per shard:
			// the memo table, key buffer and report map are reused across
			// every function in the shard instead of reallocated per run.
			var runner engine.Runner
			fcol := report.NewCollector()
			runOne := func(fn string) {
				defer qc.recoverInto(stage, fn, nil)
				fault.Trap("checker", fn)
				eoFn := eo
				eoFn.Deadline = deadline
				if a.opts.UnitDeadline > 0 {
					if ud := time.Now().Add(a.opts.UnitDeadline); eoFn.Deadline.IsZero() || ud.Before(eoFn.Deadline) {
						eoFn.Deadline = ud
					}
				}
				fcol.Reset()
				s := runner.Run(graphs[fn], ch, fcol, eoFn)
				total.Visits += s.Visits
				total.MemoHits += s.MemoHits
				total.Truncated = total.Truncated || s.Truncated
				if a.opts.VisitBudget > 0 && s.Truncated {
					qc.add(stage, fn, visitBudgetCause(a.opts.VisitBudget))
					return
				}
				if s.DeadlineExceeded {
					if deadlinePassed() {
						qc.markDeadline()
					}
					qc.add(stage, fn, "deadline-exceeded")
					return
				}
				col.Merge(fcol)
			}
			for _, fn := range checkNames[spans[si].lo:spans[si].hi] {
				runOne(fn)
			}
			shards[si], cols[si], sts[si] = ch, col, total
		})
		var agg engine.RunStats
		for si := range spans {
			merge(shards[si])
			res.Reports.Merge(cols[si])
			agg.Visits += sts[si].Visits
			agg.MemoHits += sts[si].MemoHits
			agg.Truncated = agg.Truncated || sts[si].Truncated
		}
		res.EngineStats[name] = agg
	}

	if a.opts.Checks.Null {
		cfgn := null.AllChecks()
		if a.opts.NullConfig != nil {
			cfgn = *a.opts.NullConfig
		}
		ch := null.New(cfgn)
		runEngine(ch.Name(),
			func() engine.Checker { return ch.Fork() },
			func(w engine.Checker) { ch.Merge(w.(*null.Checker)) })
		derive(ch.Name(), func() { ch.Finish(res.Reports) })
	}
	if a.opts.Checks.Free {
		ch := freecheck.New(a.conv)
		runEngine(ch.Name(),
			func() engine.Checker { return ch.Fork() },
			func(w engine.Checker) { ch.Merge(w.(*freecheck.Checker)) })
	}

	// The three program-level AST checkers are independent of each other;
	// run them concurrently, each into a private collector, merged in the
	// fixed serial order.
	type progStage struct {
		name    string
		enabled bool
		run     func(*report.Collector)
	}
	progStages := []progStage{
		{"redundant", a.opts.Checks.Redundant, func(col *report.Collector) {
			redundant.New(res.Prog).Run(col)
		}},
		{"retconv", a.opts.Checks.RetConv, func(col *report.Collector) {
			ch := retconv.New(res.Prog, a.conv)
			ch.SetP0(a.opts.P0)
			ch.Run(col)
		}},
		{"userptr", a.opts.Checks.UserPtr, func(col *report.Collector) {
			userptr.New(res.Prog, a.conv).Run(col)
		}},
	}
	progCols := make([]*report.Collector, len(progStages))
	progDur := make([]time.Duration, len(progStages))
	parallelDo(workers, len(progStages), func(i int) {
		if !progStages[i].enabled {
			return
		}
		if deadlinePassed() {
			qc.stageDeadline("checker:" + progStages[i].name)
			return
		}
		sp := checkerSpan(progStages[i].name)
		t := time.Now()
		col := report.NewCollector()
		panicked := false
		func() {
			defer qc.recoverInto("checker:"+progStages[i].name, "*", &panicked)
			fault.Trap("checker", progStages[i].name)
			progStages[i].run(col)
		}()
		if !panicked {
			progCols[i] = col
		}
		progDur[i] = time.Since(t)
		sp.End()
	})
	for i, st := range progStages {
		if progCols[i] != nil {
			res.Reports.Merge(progCols[i])
			res.Timing.Checkers[st.name] = progDur[i]
		}
	}

	if a.opts.Checks.IsErr {
		ch := iserr.New(a.conv)
		ch.SetP0(a.opts.P0)
		runEngine(ch.Name(),
			func() engine.Checker { return ch.Fork() },
			func(w engine.Checker) { ch.Merge(w.(*iserr.Checker)) })
		derive(ch.Name(), func() {
			ch.Finish(res.Reports)
			res.IsErrFuncs = ch.Ranked()
		})
	}
	if a.opts.Checks.Fail {
		ch := fail.New(a.conv)
		ch.SetP0(a.opts.P0)
		runEngine(ch.Name(),
			func() engine.Checker { return ch.Fork() },
			func(w engine.Checker) { ch.Merge(w.(*fail.Checker)) })
		derive(ch.Name(), func() {
			ch.Finish(res.Reports)
			res.CanFail = ch.Ranked()
			res.CanFailNever = ch.InverseRanked()
		})
	}
	if a.opts.Checks.LockVar {
		ch := lockvar.New(res.Prog, a.conv)
		ch.SetP0(a.opts.P0)
		runEngine(ch.Name(),
			func() engine.Checker { return ch.Fork() },
			func(w engine.Checker) { ch.Merge(w.(*lockvar.Checker)) })
		derive(ch.Name(), func() {
			ch.Finish(res.Reports)
			res.LockBindings = ch.Bindings()
		})
	}
	if a.opts.Checks.Pairing {
		if deadlinePassed() {
			qc.stageDeadline("checker:pairing")
		} else {
			t := time.Now()
			sp := checkerSpan("pairing")
			ch := pairing.New(a.conv, pairing.DefaultLimits())
			forks := make([]*pairing.Checker, len(spans))
			parallelDo(workers, len(spans), func(si int) {
				f := ch.Fork()
				for _, fn := range checkNames[spans[si].lo:spans[si].hi] {
					func() {
						defer qc.recoverInto("checker:pairing", fn, nil)
						fault.Trap("checker", fn)
						f.AddFunction(graphs[fn])
					}()
				}
				forks[si] = f
			})
			for _, f := range forks {
				ch.Merge(f)
			}
			sp.End()
			res.Timing.Checkers["pairing"] = time.Since(t)
			derive("pairing", func() {
				res.Pairs = ch.Finish(res.Reports, a.opts.P0, a.opts.MinPairExamples, a.opts.MinPairScore)
			})
		}
	}
	if a.opts.Checks.Intr {
		ch := intr.New(a.conv)
		ch.SetP0(a.opts.P0)
		runEngine(ch.Name(),
			func() engine.Checker { return ch.Fork() },
			func(w engine.Checker) { ch.Merge(w.(*intr.Checker)) })
		derive(ch.Name(), func() {
			ch.Finish(res.Reports)
			res.IntrFuncs = ch.Ranked()
		})
	}
	if a.opts.Checks.SecCheck {
		ch := seccheck.New(nil)
		ch.SetP0(a.opts.P0)
		runEngine(ch.Name(),
			func() engine.Checker { return ch.Fork() },
			func(w engine.Checker) { ch.Merge(w.(*seccheck.Checker)) })
		derive(ch.Name(), func() {
			ch.Finish(res.Reports)
			res.SecChecks = ch.Ranked()
		})
	}
	if a.opts.Checks.Reverse {
		if deadlinePassed() {
			qc.stageDeadline("checker:reverse")
		} else {
			t := time.Now()
			sp := checkerSpan("reverse")
			ch := reverse.New(a.conv, reverse.DefaultLimits())
			forks := make([]*reverse.Checker, len(spans))
			parallelDo(workers, len(spans), func(si int) {
				f := ch.Fork()
				for _, fn := range checkNames[spans[si].lo:spans[si].hi] {
					func() {
						defer qc.recoverInto("checker:reverse", fn, nil)
						fault.Trap("checker", fn)
						f.AddFunction(graphs[fn])
					}()
				}
				forks[si] = f
			})
			for _, f := range forks {
				ch.Merge(f)
			}
			sp.End()
			res.Timing.Checkers["reverse"] = time.Since(t)
			derive("reverse", func() {
				res.Reversals = ch.Finish(res.Reports, a.opts.P0, a.opts.MinPairExamples, a.opts.MinPairScore)
			})
		}
	}
	res.Timing.Total = time.Since(start)

	// Stable identities, computed from the same parsed files the
	// checkers saw. Built here — the shared tail of AnalyzeFS and
	// AnalyzeParsed — so fleet-merged runs stamp the same fingerprints
	// as single-process ones, byte for byte.
	fpSpan := root.Child("fingerprint")
	res.Fingerprints = report.NewFingerprinter(files)
	res.Reports.SetFingerprints(res.Fingerprints)
	fpSpan.End()

	qc.finalize(res)
	if j := a.opts.Journal; j != nil {
		// Canonicalized records, so the journal's quarantine section is
		// as deterministic as the result's.
		for _, rec := range res.Quarantined {
			j.Event("quarantine",
				obs.A("stage", rec.Stage), obs.A("unit", rec.Unit), obs.A("cause", rec.Cause))
		}
	}
	return res, nil
}
