package main

import (
	"bytes"
	"encoding/json"
	"strings"

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
	"deviant/internal/core"
	"deviant/internal/cparse"
	"deviant/internal/cpp"
	"deviant/internal/csem"
	"deviant/internal/ctoken"
	"deviant/internal/engine"
	"deviant/internal/intern"
	"deviant/internal/latent"
	"deviant/internal/report"
	"deviant/internal/snapshot"
)

// The replay pipeline calls each layer through its exported entry
// points in the order core.Analyzer runs them with one worker, so its
// ranked output must equal the program's; the traced run fails if it
// does not. Each call (or loop of calls into one layer) sits in a span
// named after the layer.

// checkerNames are the twelve checkers in core's run order; derived
// are the eight whose rule derivation (Finish) is a separate step.
var (
	checkerNames = []string{"null", "free", "redundant", "retconv", "userptr", "iserr",
		"fail", "lockvar", "pairing", "intr", "seccheck", "reverse"}
	derivedNames = []string{"null", "iserr", "fail", "lockvar", "pairing", "intr", "seccheck", "reverse"}
)

// counts accumulates the layer counters of a traced run, read from
// public result fields and return values.
type counts struct {
	tokens, decls                   int
	scanHits, scanMisses            int64
	parseErrors                     int
	graphsBuilt, graphsReused       int
	blocks                          int
	visits, memoHits                int
	checkerReports                  map[string]int
	renderBytes                     int
	unitHits, unitMisses            int // snapshot units reused / parsed
	snapGraphsReused, snapGraphsNew int // snapshot-backed CFG reuse
	evictions                       int64
}

func newCounts() *counts { return &counts{checkerReports: map[string]int{}} }

// replayFrontend preprocesses and parses every unit, sharing one scan
// cache and interner across the run as core's frontend does. With a
// store, a unit whose content closure is cached reuses its parse tree,
// and owner maps each function to the artifact that caches its CFG.
func replayFrontend(sc scope, fs cpp.MapFS, units []string, store *snapshot.Store, n *counts) ([]*cast.File, map[*cast.FuncDecl]*snapshot.Artifact) {
	cache := cpp.NewTokenCache()
	interner := intern.NewTable()
	files := make([]*cast.File, 0, len(units))
	var owner map[*cast.FuncDecl]*snapshot.Artifact
	if store != nil {
		owner = make(map[*cast.FuncDecl]*snapshot.Artifact)
	}
	for _, u := range units {
		var art *snapshot.Artifact
		hit := false
		if store != nil {
			sc.span("snapshot.lookup", func() { art, hit = store.Lookup(fs, replayConfigKey, u) })
		}
		var f *cast.File
		if hit {
			n.unitHits++
			f = art.File
		} else {
			if store != nil {
				n.unitMisses++
			}
			pp := cpp.New(fs, "include")
			pp.UseCache(cache)
			pp.SetInterner(interner)
			var toks []ctoken.Token
			var errs []error
			sc.span("cpp", func() {
				src, err := fs.ReadFile(u)
				if err == nil {
					toks, err = pp.ProcessBytes(u, src)
				}
				if err != nil {
					errs = append(errs, err)
				}
			})
			sc.span("cparse", func() {
				var perrs []error
				f, perrs = cparse.ParseFile(u, toks)
				errs = append(errs, perrs...)
			})
			n.tokens += len(toks)
			n.parseErrors += len(errs)
			if store != nil {
				art = &snapshot.Artifact{File: f, ParseErrors: errs, Lines: strings.Count(fs[u], "\n") + 1}
				sc.span("snapshot.add", func() {
					store.Add(fs, replayConfigKey, u, pp.IncludeDeps(), pp.MissedProbes(), art)
				})
			}
		}
		n.decls += len(f.Decls)
		if owner != nil {
			for _, d := range f.Decls {
				if fd, ok := d.(*cast.FuncDecl); ok && fd.Body != nil {
					owner[fd] = art
				}
			}
		}
		files = append(files, f)
	}
	st := cache.Stats()
	n.scanHits += st.Hits
	n.scanMisses += st.Misses
	return files, owner
}

// replayConfigKey keys the replay's own snapshot stores; any constant
// works because no other analyzer shares them.
var replayConfigKey = snapshot.Fingerprint("perfbench-replay")

// replayDownstream runs the global half: semantic index, CFGs, every
// checker and its derivation, fingerprints, ranking and rendering.
func replayDownstream(sc scope, files []*cast.File, owner map[*cast.FuncDecl]*snapshot.Artifact, n *counts) []report.JSONReport {
	conv := latent.Default()
	opts := core.DefaultOptions()
	p0 := opts.P0

	var prog *csem.Program
	sc.span("csem", func() { prog = csem.Analyze(files) })
	names := prog.FuncNames()
	graphs := make(map[string]*cfg.Graph, len(names))
	sc.span("cfg", func() {
		for _, name := range names {
			fd := prog.Funcs[name]
			art := owner[fd]
			if art != nil {
				if g, ok := art.Graph(name); ok {
					graphs[name] = g
					n.graphsReused++
					n.snapGraphsReused++
					continue
				}
			}
			g := cfg.Build(fd, cfg.Options{NoReturn: conv.IsCrashRoutine})
			if art != nil {
				art.SetGraph(name, g)
				n.snapGraphsNew++
			}
			graphs[name] = g
			n.graphsBuilt++
			n.blocks += len(g.Blocks)
		}
	})

	reports := report.NewCollector()
	eo := engine.Options{Memoize: opts.Memoize}
	// traverse mirrors core's runEngine with one shard: a forked
	// accumulator walks every function, each into a scratch collector
	// merged into the shard's, then both fold back.
	traverse := func(name string, fork func() engine.Checker, merge func(engine.Checker)) {
		sc.span("checker."+name+".traverse", func() {
			ch := fork()
			col, fcol := report.NewCollector(), report.NewCollector()
			var rn engine.Runner
			for _, fn := range names {
				fcol.Reset()
				s := rn.Run(graphs[fn], ch, fcol, eo)
				n.visits += s.Visits
				n.memoHits += s.MemoHits
				col.Merge(fcol)
			}
			merge(ch)
			reports.Merge(col)
		})
	}
	derive := func(name string, f func()) { sc.span("checker."+name+".derive", f) }

	nullCh := null.New(null.AllChecks())
	traverse("null", func() engine.Checker { return nullCh.Fork() },
		func(w engine.Checker) { nullCh.Merge(w.(*null.Checker)) })
	derive("null", func() { nullCh.Finish(reports) })

	freeCh := freecheck.New(conv)
	traverse("free", func() engine.Checker { return freeCh.Fork() },
		func(w engine.Checker) { freeCh.Merge(w.(*freecheck.Checker)) })

	for _, st := range []struct {
		name string
		run  func(*report.Collector)
	}{
		{"redundant", func(col *report.Collector) { redundant.New(prog).Run(col) }},
		{"retconv", func(col *report.Collector) {
			ch := retconv.New(prog, conv)
			ch.SetP0(p0)
			ch.Run(col)
		}},
		{"userptr", func(col *report.Collector) { userptr.New(prog, conv).Run(col) }},
	} {
		sc.span("checker."+st.name+".traverse", func() {
			col := report.NewCollector()
			st.run(col)
			reports.Merge(col)
		})
	}

	isCh := iserr.New(conv)
	isCh.SetP0(p0)
	traverse("iserr", func() engine.Checker { return isCh.Fork() },
		func(w engine.Checker) { isCh.Merge(w.(*iserr.Checker)) })
	derive("iserr", func() { isCh.Finish(reports); isCh.Ranked() })

	failCh := fail.New(conv)
	failCh.SetP0(p0)
	traverse("fail", func() engine.Checker { return failCh.Fork() },
		func(w engine.Checker) { failCh.Merge(w.(*fail.Checker)) })
	derive("fail", func() { failCh.Finish(reports); failCh.Ranked(); failCh.InverseRanked() })

	lockCh := lockvar.New(prog, conv)
	lockCh.SetP0(p0)
	traverse("lockvar", func() engine.Checker { return lockCh.Fork() },
		func(w engine.Checker) { lockCh.Merge(w.(*lockvar.Checker)) })
	derive("lockvar", func() { lockCh.Finish(reports); lockCh.Bindings() })

	pairCh := pairing.New(conv, pairing.DefaultLimits())
	sc.span("checker.pairing.traverse", func() {
		f := pairCh.Fork()
		for _, fn := range names {
			f.AddFunction(graphs[fn])
		}
		pairCh.Merge(f)
	})
	derive("pairing", func() { pairCh.Finish(reports, p0, opts.MinPairExamples, opts.MinPairScore) })

	intrCh := intr.New(conv)
	intrCh.SetP0(p0)
	traverse("intr", func() engine.Checker { return intrCh.Fork() },
		func(w engine.Checker) { intrCh.Merge(w.(*intr.Checker)) })
	derive("intr", func() { intrCh.Finish(reports); intrCh.Ranked() })

	secCh := seccheck.New(nil)
	secCh.SetP0(p0)
	traverse("seccheck", func() engine.Checker { return secCh.Fork() },
		func(w engine.Checker) { secCh.Merge(w.(*seccheck.Checker)) })
	derive("seccheck", func() { secCh.Finish(reports); secCh.Ranked() })

	revCh := reverse.New(conv, reverse.DefaultLimits())
	sc.span("checker.reverse.traverse", func() {
		f := revCh.Fork()
		for _, fn := range names {
			f.AddFunction(graphs[fn])
		}
		revCh.Merge(f)
	})
	derive("reverse", func() { revCh.Finish(reports, p0, opts.MinPairExamples, opts.MinPairScore) })

	sc.span("report.fingerprint", func() { reports.SetFingerprints(report.NewFingerprinter(files)) })
	var ranked []report.Report
	sc.span("report.rank", func() { ranked = reports.Ranked() })
	out := make([]report.JSONReport, len(ranked))
	sc.span("report.render", func() {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := range ranked {
			out[i] = report.ToJSON(i+1, &ranked[i])
			_ = enc.Encode(out[i]) // a bytes.Buffer write cannot fail
		}
		n.renderBytes += buf.Len()
	})
	for _, r := range ranked {
		name, _, _ := strings.Cut(r.Checker, "/")
		n.checkerReports[name]++
	}
	return out
}
