package core

import (
	"fmt"
	"reflect"
	"time"

	"deviant/internal/cast"
	"deviant/internal/cfg"
	"deviant/internal/checkers/pairing"
	"deviant/internal/engine"
	"deviant/internal/fault"
	"deviant/internal/obs"
	"deviant/internal/report"
	"deviant/internal/snapshot"
)

// Slots of the per-function checkers' partials on a snapshot artifact.
const (
	slotNull = iota
	slotFree
	slotIsErr
	slotFail
	slotLockVar
	slotPairing
	slotIntr
	slotSecCheck
	slotReverse
)

// partial is one function's contribution to one per-function checker:
// the evidence its traversal counted (the checker's Partial), the reports
// the run folds, and the traversal's statistics.
type partial[P any] struct {
	ev      P
	reports []report.Report
	stats   engine.RunStats
}

// withReports is how a snapshot cell holds a partial with reports. A
// cell holds a partial with evidence only as a *P, and one that
// contributed neither as nil; the statistics go into the cell's word.
// Cached partials are shared by concurrent runs and never modified.
type withReports[P any] struct {
	ev      P
	reports []report.Report
}

// packStats packs traversal statistics into a cache word: visits and
// memo hits in 31 bits each, then the truncation flag. ok is false when
// a count does not fit; such a partial is not cached.
func packStats(s engine.RunStats) (word uint64, ok bool) {
	const max31 = 1<<31 - 1
	if s.Visits > max31 || s.MemoHits > max31 {
		return 0, false
	}
	word = uint64(s.Visits) | uint64(s.MemoHits)<<31
	if s.Truncated {
		word |= 1 << 62
	}
	return word, true
}

// unpackStats inverts packStats.
func unpackStats(word uint64) engine.RunStats {
	const max31 = 1<<31 - 1
	return engine.RunStats{Visits: int(word & max31), MemoHits: int(word >> 31 & max31), Truncated: word&(1<<62) != 0}
}

// keep caches p on its function's cell.
func keep[P any](own funcOwner, fc funcChecker[P], p *partial[P]) {
	word, ok := packStats(p.stats)
	if !ok {
		return
	}
	var v any
	switch {
	case p.reports != nil:
		v = &withReports[P]{ev: p.ev, reports: p.reports}
	case !reflect.ValueOf(&p.ev).Elem().IsZero():
		ev := p.ev
		v = &ev
	}
	own.art.SetPartial(fc.slot, fc.key, own.idx, own.n, v, word)
}

// funcOwner locates a function's cache cell: the snapshot artifact of its
// unit and its ordinal among the unit's n function definitions.
type funcOwner struct {
	art    *snapshot.Artifact
	idx, n int
}

// addOwners maps every function definition of f to its cell on art.
func addOwners(owner map[*cast.FuncDecl]funcOwner, art *snapshot.Artifact, f *cast.File) {
	var defs []*cast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*cast.FuncDecl); ok && fd.Body != nil {
			defs = append(defs, fd)
		}
	}
	for i, fd := range defs {
		owner[fd] = funcOwner{art: art, idx: i, n: len(defs)}
	}
}

// shard is one shard's private fork of a checker: run traverses one
// function into the fork (reports into col), and take moves the evidence
// the fork counted since the last take out as the checker's Partial.
type shard[P any] struct {
	run  func(g *cfg.Graph, col *report.Collector, eo engine.Options) engine.RunStats
	take func() P
}

// funcChecker is one per-function checker as the fold sees it.
type funcChecker[P any] struct {
	name string
	slot int
	// key names the traversal configuration (and pre-pass facts) the
	// checker's partials depend on beyond the artifact's own inputs.
	key string
	// engine marks the path-sensitive checkers, whose traversal effort
	// Result.EngineStats records.
	engine bool
	fork   func() shard[P]
	fold   func(P)
}

// checkStage is the per-function checker stage of one run: the functions
// to check in fold order, their graphs and cache cells, and the shard
// spans that schedule them.
type checkStage struct {
	a      *Analyzer
	res    *Result
	qc     *quarantine
	root   *obs.Span
	names  []string
	graphs []*cfg.Graph
	owners []funcOwner
	spans  []span
	eopts  engine.Options
}

// Where a function's partial came from.
const (
	built    = iota // traversed and, with a store attached, cached
	reused          // served from the function's cache cell
	panicked        // the traversal panicked: evidence only, never cached
)

// runChecker computes one partial per function — from the function's
// cache cell when it holds one under fc's key, else by traversing it in
// its shard's fork — and folds them in function order. That order is
// the one fold of every run: shards only schedule the traversals, so
// output is the same for every worker count and every mix of cached and
// fresh partials. It returns false when the run deadline had passed
// before the stage began and nothing ran.
func runChecker[P any](cs *checkStage, fc funcChecker[P]) bool {
	stage := "checker:" + fc.name
	t := time.Now()
	var chSpan *obs.Span
	if cs.a.opts.Tracer != nil {
		chSpan = cs.root.Fork("checker", obs.A("checker", fc.name))
	}
	defer chSpan.End()
	defer func() { cs.res.Timing.Checkers[fc.name] += time.Since(t) }()
	if cs.a.deadlinePassed() {
		cs.qc.stageDeadline(stage)
		return false
	}
	eo := cs.eopts
	eo.Span = chSpan
	// Partials are held by value until the fold: only the ones a cache
	// cell keeps are copied to the heap.
	type cell struct {
		p    partial[P]
		from int
	}
	cells := make([]cell, len(cs.names))
	parallelDo(cs.a.opts.Workers, len(cs.spans), func(si int) {
		// One fork and one scratch collector per shard, reset between
		// functions.
		sh := fc.fork()
		fcol := report.NewCollector()
		for i := cs.spans[si].lo; i < cs.spans[si].hi; i++ {
			cells[i].from = checkOne(cs, fc, stage, i, sh, fcol, eo, &cells[i].p)
		}
	})
	var agg engine.RunStats
	for i := range cells {
		c := &cells[i]
		fc.fold(c.p.ev)
		for _, r := range c.p.reports {
			cs.res.Reports.Add(r)
		}
		agg.Visits += c.p.stats.Visits
		agg.MemoHits += c.p.stats.MemoHits
		agg.Truncated = agg.Truncated || c.p.stats.Truncated
		if cs.res.Snapshot.Enabled {
			switch c.from {
			case reused:
				cs.res.Snapshot.PartialsReused++
			case built:
				cs.res.Snapshot.PartialsBuilt++
			}
		}
	}
	if fc.engine {
		cs.res.EngineStats[fc.name] = agg
	}
	return true
}

// checkOne produces function i's partial for fc into p under panic
// isolation and says where it came from. The failpoint fires before the
// cache lookup and before the traversal touches the fork. A function
// that panics, runs out of time or blows its visit budget is quarantined
// and its reports are dropped; its evidence still folds. Only partials
// cut by a deadline or a panic stay out of the cache: a budget-truncated
// one is cached with its flag and re-adds its quarantine record whenever
// it is reused.
func checkOne[P any](cs *checkStage, fc funcChecker[P], stage string, i int, sh shard[P], fcol *report.Collector, eo engine.Options, p *partial[P]) int {
	fn, own := cs.names[i], cs.owners[i]
	budget := cs.a.opts.VisitBudget > 0
	from := built
	func() {
		defer cs.qc.recoverInto(stage, fn, nil)
		from = panicked
		fault.Trap("checker", fn)
		if own.art != nil {
			if v, word, hit := own.art.Partial(fc.slot, fc.key, own.idx); hit {
				*p, from = partial[P]{stats: unpackStats(word)}, reused
				switch c := v.(type) {
				case *P:
					p.ev = *c
				case *withReports[P]:
					p.ev, p.reports = c.ev, c.reports
				}
				return
			}
		}
		eo.Deadline = cs.a.opts.Deadline
		if ud := cs.a.opts.UnitDeadline; ud > 0 {
			if d := time.Now().Add(ud); eo.Deadline.IsZero() || d.Before(eo.Deadline) {
				eo.Deadline = d
			}
		}
		fcol.Reset()
		st := sh.run(cs.graphs[i], fcol, eo)
		*p, from = partial[P]{ev: sh.take(), stats: st}, built
		if st.DeadlineExceeded {
			return
		}
		if !budget || !st.Truncated {
			p.reports = fcol.Reports()
		}
		if own.art != nil {
			keep(own, fc, p)
		}
	}()
	switch {
	case from == panicked:
		*p = partial[P]{ev: sh.take()}
	case p.stats.DeadlineExceeded:
		if cs.a.deadlinePassed() {
			cs.qc.markDeadline()
		}
		cs.qc.add(stage, fn, "deadline-exceeded")
	case budget && p.stats.Truncated:
		cs.qc.add(stage, fn, visitBudgetCause(cs.a.opts.VisitBudget))
	}
	return from
}

// engineChecker is the funcChecker of a path-sensitive checker: each
// shard traverses its functions with a fork and one reused runner.
func engineChecker[P any, C interface {
	engine.Checker
	TakePartial() P
}](name string, slot int, key string, fork func() C, fold func(P)) funcChecker[P] {
	return funcChecker[P]{name: name, slot: slot, key: key, engine: true, fold: fold,
		fork: func() shard[P] {
			f := fork()
			var runner engine.Runner
			return shard[P]{
				run: func(g *cfg.Graph, col *report.Collector, eo engine.Options) engine.RunStats {
					return runner.Run(g, f, col, eo)
				},
				take: f.TakePartial,
			}
		}}
}

// pathChecker is the funcChecker of a path-template deriver (pairing,
// reverse): a shard's traversal is path enumeration, with no engine
// statistics, and the partials depend only on the enumeration limits.
func pathChecker(name string, slot int, limits pairing.Limits, ch *pairing.Checker) funcChecker[pairing.Partial] {
	return funcChecker[pairing.Partial]{name: name, slot: slot, key: fmt.Sprintf("limits=%+v", limits), fold: ch.Fold,
		fork: func() shard[pairing.Partial] {
			f := ch.Fork()
			return shard[pairing.Partial]{
				run: func(g *cfg.Graph, _ *report.Collector, _ engine.Options) engine.RunStats {
					f.AddFunction(g)
					return engine.RunStats{}
				},
				take: f.TakePartial,
			}
		}}
}
