package core

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"deviant/internal/cast"
	"deviant/internal/cparse"
	"deviant/internal/cpp"
	"deviant/internal/ctoken"
	"deviant/internal/engine"
	"deviant/internal/fault"
	"deviant/internal/intern"
	"deviant/internal/obs"
	"deviant/internal/report"
	"deviant/internal/snapshot"
)

// newResult returns an empty Result with every container initialized.
func newResult() *Result {
	return &Result{
		Reports:     report.NewCollector(),
		EngineStats: make(map[string]engine.RunStats),
		Timing:      Timing{Checkers: make(map[string]time.Duration), Derive: make(map[string]time.Duration)},
	}
}

// unitOut is one translation unit's frontend output before the fold.
type unitOut struct {
	file        *cast.File
	toks        []ctoken.Token // retained only when the caller wants tokens
	errs        []error
	readErr     error
	lines       int
	ppDur       time.Duration
	parse       time.Duration
	art         *snapshot.Artifact
	reused      bool
	quarantined bool
}

// runFrontend preprocesses and parses every unit concurrently. With a
// snapshot store attached, a unit whose transitive content digest
// matches a cached artifact reuses the previous parse tree outright;
// only genuinely changed units pay for preprocessing and parsing.
//
// wantTokens additionally retains each unit's preprocessed token stream
// (the distributed shard payload). A snapshot hit whose artifact holds
// no retained tokens is then treated as a miss — a hit must carry
// everything the caller needs or it is recomputed.
func (a *Analyzer) runFrontend(fs cpp.FileProvider, units []string, res *Result, qc *quarantine, root *obs.Span, wantTokens bool) []unitOut {
	workers := a.opts.Workers
	tr := a.opts.Tracer
	snap := a.opts.Snapshot
	var confFP string
	if snap != nil {
		confFP = a.configFingerprint()
	}
	cache := cpp.NewTokenCache()
	// One identifier interner per run: every preprocessor shares it, so a
	// spelling is allocated once run-wide and equal identifier Texts share
	// a pointer (string comparison fast-paths on pointer equality).
	interner := intern.NewTable()
	outs := make([]unitOut, len(units))
	feStart := time.Now()
	feSpan := root.Child("frontend")
	parallelDo(workers, len(units), func(i int) {
		o := &outs[i]
		var usp *obs.Span
		if tr != nil {
			usp = feSpan.Fork("unit", obs.A("file", units[i]))
			defer usp.End()
		}
		if a.deadlinePassed() {
			o.quarantined = true
			qc.stageDeadline("frontend")
			return
		}
		panicked := false
		func() {
			defer qc.recoverInto("frontend", units[i], &panicked)
			if snap != nil {
				if art, ok := snap.Lookup(fs, confFP, units[i]); ok {
					var toks []ctoken.Token
					if wantTokens {
						toks = art.TokensRef()
					}
					if !wantTokens || toks != nil {
						o.file, o.errs, o.lines = art.File, art.ParseErrors, art.Lines
						o.art, o.reused, o.toks = art, true, toks
						usp.SetAttr("reused", "true")
						return
					}
				}
			}
			pp := cpp.New(fs, a.opts.IncludeDirs...)
			pp.UseCache(cache)
			pp.SetInterner(interner)
			for k, v := range a.opts.Defines {
				pp.Define(k, v)
			}
			src, err := fs.ReadFile(units[i])
			if err != nil {
				o.readErr = err
				return
			}
			o.lines = bytes.Count(src, []byte{'\n'}) + 1
			psp := usp.Child("preprocess")
			pp.SetTrace(psp)
			t0 := time.Now()
			toks, err := pp.ProcessBytes(units[i], src)
			o.ppDur = time.Since(t0)
			psp.End()
			if err != nil {
				o.errs = append(o.errs, pp.Errs()...)
			}
			psp = usp.Child("parse")
			t0 = time.Now()
			f, perrs := cparse.ParseFile(units[i], toks)
			o.parse = time.Since(t0)
			psp.End()
			o.errs = append(o.errs, perrs...)
			o.file = f
			if wantTokens {
				o.toks = toks
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*cast.FuncDecl); ok {
					fault.Trap("frontend", fd.Name)
				}
			}
			if a.opts.UnitDeadline > 0 && o.ppDur+o.parse > a.opts.UnitDeadline {
				// Skip snap.Add too: a cached artifact would be reused on
				// the next run and silently un-quarantine the unit.
				qc.add("frontend", units[i], frontendBudgetCause(a.opts.UnitDeadline))
				o.quarantined = true
				o.file, o.toks = nil, nil
				return
			}
			if snap != nil {
				o.art = &snapshot.Artifact{File: f, ParseErrors: o.errs, Lines: o.lines}
				if snap.Persistent() || snap.RetainsTokens() {
					o.art.Tokens = toks
				}
				snap.Add(fs, confFP, units[i], pp.IncludeDeps(), pp.MissedProbes(), o.art)
			}
		}()
		if panicked {
			o.quarantined = true
			o.file, o.errs, o.art, o.toks = nil, nil, nil, nil
		}
	})
	feSpan.End()
	res.Timing.Frontend = time.Since(feStart)
	cstats := cache.Stats()
	res.Timing.TokenCacheHits, res.Timing.TokenCacheMisses = cstats.Hits, cstats.Misses
	res.Snapshot.Enabled = snap != nil
	return outs
}

// FrontendUnit is one translation unit's portable frontend output: the
// preprocessed token stream plus the diagnostics and line count the
// coordinator-side fold needs. Reparsing Tokens with cparse.ParseFile
// reproduces the unit's parse tree and diagnostics exactly (the same
// property the snapshot disk tier relies on), which is what makes the
// token stream a sufficient shard wire payload.
type FrontendUnit struct {
	Unit        string
	Tokens      []ctoken.Token
	Errs        []error
	Lines       int
	Reused      bool
	Preprocess  time.Duration
	Parse       time.Duration
	Quarantined bool
}

// FrontendResult is the per-unit half of a run: what a fleet worker
// computes for its shard and ships back for the global merge.
type FrontendResult struct {
	// Units holds one entry per requested unit, in request order. A
	// quarantined unit keeps its slot (Quarantined set, Tokens nil) so
	// positional folds stay aligned.
	Units []FrontendUnit
	// Records are the canonicalized frontend quarantine records and
	// Panics the recovered-panic count behind them.
	Records []fault.Record
	Panics  int
	// Snapshot reports reuse against Options.Snapshot, if any.
	Snapshot snapshot.RunStats
}

// Frontend runs only the per-unit half of the pipeline — preprocess and
// parse, with snapshot reuse — and returns portable per-unit outputs.
// It is the worker side of a distributed run: semantic indexing, CFGs,
// checkers and ranking are cross-unit by construction (the paper's
// statistics are only meaningful corpus-wide) and stay with the caller.
func (a *Analyzer) Frontend(fs cpp.FileProvider, units []string) (*FrontendResult, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("core: no translation units")
	}
	res := newResult()
	tr := a.opts.Tracer
	root := tr.Start("frontend", obs.A("units", strconv.Itoa(len(units))))
	defer root.End()
	qc := &quarantine{}
	outs := a.runFrontend(fs, units, res, qc, root, true)
	fr := &FrontendResult{Units: make([]FrontendUnit, len(units))}
	for i := range outs {
		if outs[i].readErr != nil {
			return nil, fmt.Errorf("core: %w", outs[i].readErr)
		}
		u := &fr.Units[i]
		u.Unit = units[i]
		u.Quarantined = outs[i].quarantined
		if outs[i].quarantined {
			continue
		}
		u.Tokens, u.Errs, u.Lines = outs[i].toks, outs[i].errs, outs[i].lines
		u.Reused = outs[i].reused
		u.Preprocess, u.Parse = outs[i].ppDur, outs[i].parse
		if res.Snapshot.Enabled {
			if outs[i].reused {
				res.Snapshot.UnitsReused++
			} else {
				res.Snapshot.UnitsParsed++
			}
		}
	}
	fr.Snapshot = res.Snapshot
	fr.Records, fr.Panics = qc.drain()
	return fr, nil
}

// ParsedUnit is one translation unit's decoded frontend output, ready
// for the global half of the pipeline.
type ParsedUnit struct {
	Name        string
	File        *cast.File // nil marks a unit quarantined upstream
	ParseErrors []error
	Lines       int
}

// AnalyzeParsed runs the global half of the pipeline — semantic
// indexing, CFG construction, checkers, derivation and ranking — over
// units parsed elsewhere, folding them in slice order. Callers must
// present units in the same sorted order AnalyzeSources uses; the
// result is then byte-identical to a single-process run over the same
// corpus, because the fold and everything downstream of it are exactly
// the code AnalyzeFS runs.
//
// pre seeds the quarantine with upstream failures (worker-side frontend
// records, fleet-level losses) and prePanics the recovered-panic count
// behind them; both merge canonically with any failures the global half
// adds.
func (a *Analyzer) AnalyzeParsed(units []ParsedUnit, pre []fault.Record, prePanics int) (*Result, error) {
	if len(units) == 0 && len(pre) == 0 {
		return nil, fmt.Errorf("core: no translation units")
	}
	start := time.Now()
	res := newResult()
	tr := a.opts.Tracer
	root := tr.Start("analyze-parsed", obs.A("units", strconv.Itoa(len(units))))
	defer root.End()
	qc := &quarantine{}
	qc.preload(pre, prePanics)
	files := make([]*cast.File, 0, len(units))
	for i := range units {
		if units[i].File == nil {
			continue
		}
		res.LineCount += units[i].Lines
		res.ParseErrors = append(res.ParseErrors, units[i].ParseErrors...)
		files = append(files, units[i].File)
	}
	return a.downstream(res, qc, root, start, files, nil)
}
