// Package engine applies checkers down the execution paths of a CFG,
// memoizing checker state per basic block — the analysis core of xgcc
// (§3.5: "the extensions are applied down each execution path in that
// function. The system memoizes extension results, making the analyses
// usually roughly linear in code length").
//
// A checker supplies a state (cloneable, with a canonical Key), receives a
// stream of events (dereferences, calls, assignments, uses, returns) plus
// branch assumptions, and reports errors through the shared collector.
package engine

import (
	"strconv"
	"time"

	"deviant/internal/cast"
	"deviant/internal/cfg"
	"deviant/internal/ctoken"
	"deviant/internal/obs"
	"deviant/internal/report"
)

// State is a checker's per-path analysis state.
type State interface {
	// Clone returns an independent copy.
	Clone() State
	// Key canonically encodes the state for memoization. Two states with
	// equal keys must behave identically for the rest of the path.
	Key() string
}

// AppendKeyer is an optional fast path for State.Key: AppendKey appends
// the same canonical encoding to b and returns it, letting the engine
// build memo keys in a reused buffer instead of allocating a string per
// block visit. Implementations must keep AppendKey and Key consistent.
type AppendKeyer interface {
	AppendKey(b []byte) []byte
}

// NextKey returns the smallest non-empty key of m strictly greater than
// prev, or "" when none remains. Starting from prev == "" and feeding
// each result back in visits every non-empty key in ascending order
// without allocating — the building block for AppendKey implementations
// over the small per-path maps of checker states. Callers must not use
// "" as a map key (checker slot keys never are).
func NextKey[V any](m map[string]V, prev string) string {
	next := ""
	for k := range m {
		if k > prev && (next == "" || k < next) {
			next = k
		}
	}
	return next
}

// EventKind discriminates events.
type EventKind int

// Event kinds.
const (
	// EvDeref: Ptr was dereferenced (*p, p->f, p[i]).
	EvDeref EventKind = iota
	// EvUse: an identifier or member chain was read (Expr holds it).
	EvUse
	// EvCall: Call holds the call expression.
	EvCall
	// EvAssign: LHS = RHS (RHS nil for ++/--).
	EvAssign
	// EvDecl: Decl holds a local declaration (Init handled as assign).
	EvDecl
	// EvReturn: Expr holds the returned value (nil for bare return).
	EvReturn
	// EvStmtEnd marks the end of one statement-level unit; checkers that
	// count per-statement (the lock checker's access counting) flush
	// transient buffers here. Transient per-statement state need not be
	// part of State.Key since units never span memoization points.
	EvStmtEnd
)

// Event is one action on a path.
type Event struct {
	Kind EventKind
	Ptr  cast.Expr // EvDeref: the pointer operand
	Expr cast.Expr // EvUse / EvReturn payload
	Call *cast.CallExpr
	LHS  cast.Expr
	RHS  cast.Expr
	Decl *cast.VarDecl
	Pos  ctoken.Pos
}

// Ctx gives checkers access to the surrounding function and the report
// collector.
type Ctx struct {
	Fn      *cast.FuncDecl
	File    string
	Reports *report.Collector
}

// Checker is the interface analyses implement; it corresponds to one
// metal extension.
type Checker interface {
	// Name identifies the checker in reports.
	Name() string
	// NewState returns the state at function entry.
	NewState(fn *cast.FuncDecl) State
	// Event processes one straight-line action, mutating st.
	Event(st State, ev *Event, ctx *Ctx)
	// Branch incorporates the assumption that cond evaluated to val,
	// mutating st (called once per outgoing CFG edge with a cloned st).
	Branch(st State, cond cast.Expr, val bool, ctx *Ctx)
	// FuncEnd is called when a path reaches the function exit.
	FuncEnd(st State, ctx *Ctx)
}

// Options tunes the traversal.
type Options struct {
	// Memoize prunes (block, state) pairs already visited. Disabling it
	// reproduces naive exhaustive path exploration (the E10 ablation).
	Memoize bool
	// MaxVisits bounds total block visits as a safety valve; <= 0 means
	// the default.
	MaxVisits int
	// LoopBound bounds how many times a block may repeat on one path
	// when memoization is off; <= 0 means the default of 2.
	LoopBound int
	// Span, when non-nil, is the tracing parent: Run emits one "engine"
	// span per function under it (attrs: func, checker). Nil costs one
	// pointer check per Run.
	Span *obs.Span
	// Deadline, when non-zero, is a wall-clock budget: traversal stops
	// once the clock passes it and RunStats.DeadlineExceeded is set.
	// The clock is sampled every deadlineStride visits a Runner makes,
	// counted across all its Run calls, so overrun is bounded by the
	// cost of that many visits, not by path length, and a Runner reused
	// over many small functions does not read the clock for each one.
	Deadline time.Time
}

// DefaultMaxVisits bounds traversal work per function.
const DefaultMaxVisits = 200000

// deadlineStride is how many block visits pass between clock samples
// when Options.Deadline is set.
const deadlineStride = 64

// RunStats reports traversal effort, used by the scalability experiment.
type RunStats struct {
	Visits           int  // block visits performed
	MemoHits         int  // visits skipped by memoization
	Truncated        bool // hit MaxVisits
	DeadlineExceeded bool // hit Options.Deadline
}

type runner struct {
	g      *cfg.Graph
	ch     Checker
	ctx    Ctx
	opts   Options
	memo   map[string]bool
	onPath map[int]int
	stats  RunStats

	// ev is the shared event scratch: events are delivered synchronously
	// and checkers do not retain the *Event past the call (they keep the
	// AST nodes it points at, which live independently), so one Event per
	// runner replaces one allocation per emitted event.
	ev Event
	// keyBuf is the reused memo-key buffer; map lookups convert it with
	// a non-escaping string conversion, so only first-time inserts copy.
	keyBuf []byte
	// polls counts deadline checks over the runner's lifetime, not per
	// Run: the clock is read when it is a multiple of deadlineStride, so
	// a fresh runner samples on its first visit.
	polls int
}

// fire delivers ev to the checker through the shared scratch slot.
func (r *runner) fire(st State, ev Event) {
	r.ev = ev
	r.ch.Event(st, &r.ev, &r.ctx)
}

// A Runner amortizes per-function traversal state — the memoization
// table, path counters and key buffer — across many Run calls. Reusing
// one Runner per worker goroutine drops the per-function allocation
// count to the states the checker itself creates. The zero value is
// ready to use; a Runner must not be shared between goroutines.
type Runner struct {
	r runner
}

// Run applies ch to every path of g and returns traversal statistics.
func (rn *Runner) Run(g *cfg.Graph, ch Checker, col *report.Collector, opts Options) RunStats {
	if opts.MaxVisits <= 0 {
		opts.MaxVisits = DefaultMaxVisits
	}
	if opts.LoopBound <= 0 {
		opts.LoopBound = 2
	}
	if opts.Span != nil {
		// Fork, not Child: shards of one checker run concurrently, and
		// forked spans get their own trace lanes.
		sp := opts.Span.Fork("engine", obs.A("func", g.Fn.Name), obs.A("checker", ch.Name()))
		defer sp.End()
	}
	r := &rn.r
	r.g = g
	r.ch = ch
	r.ctx = Ctx{Fn: g.Fn, File: g.Fn.NamePos.File, Reports: col}
	r.opts = opts
	r.stats = RunStats{}
	if r.memo == nil {
		r.memo = make(map[string]bool)
	} else {
		clear(r.memo)
	}
	if r.onPath == nil {
		r.onPath = make(map[int]int)
	} else {
		clear(r.onPath)
	}
	st := ch.NewState(g.Fn)
	r.visit(g.Entry, st, r.onPath)
	// Drop the per-call references so a retained Runner does not pin a
	// finished function's graph or checker between calls.
	r.g, r.ch, r.ctx = nil, nil, Ctx{}
	return r.stats
}

// Run applies ch to every path of g and returns traversal statistics.
// It is the single-shot form of Runner.Run; loops over many functions
// should reuse a Runner.
func Run(g *cfg.Graph, ch Checker, col *report.Collector, opts Options) RunStats {
	var rn Runner
	return rn.Run(g, ch, col, opts)
}

// visit processes blk under st. onPath counts per-block occurrences on the
// current path (loop bounding for the unmemoized mode).
func (r *runner) visit(blk *cfg.Block, st State, onPath map[int]int) {
	if blk == nil || r.stats.Truncated || r.stats.DeadlineExceeded {
		return
	}
	if r.stats.Visits >= r.opts.MaxVisits {
		r.stats.Truncated = true
		return
	}
	if !r.opts.Deadline.IsZero() {
		if r.polls%deadlineStride == 0 && time.Now().After(r.opts.Deadline) {
			r.stats.DeadlineExceeded = true
			return
		}
		r.polls++
	}
	if r.opts.Memoize {
		b := strconv.AppendInt(r.keyBuf[:0], int64(blk.ID), 10)
		b = append(b, '|')
		if ak, ok := st.(AppendKeyer); ok {
			b = ak.AppendKey(b)
		} else {
			b = append(b, st.Key()...)
		}
		r.keyBuf = b
		if r.memo[string(b)] {
			r.stats.MemoHits++
			return
		}
		r.memo[string(b)] = true
	} else {
		if onPath[blk.ID] >= r.opts.LoopBound {
			return
		}
		onPath[blk.ID]++
		defer func() { onPath[blk.ID]-- }()
	}
	r.stats.Visits++

	for _, n := range blk.Nodes {
		r.node(st, n)
		r.fire(st, Event{Kind: EvStmtEnd, Pos: n.Pos()})
	}
	if blk.Cond != nil {
		r.emitExpr(st, blk.Cond)
		r.fire(st, Event{Kind: EvStmtEnd, Pos: blk.Cond.Pos()})
	}

	if len(blk.Succs) == 0 || blk == r.g.Exit {
		r.ch.FuncEnd(st, &r.ctx)
		if blk == r.g.Exit {
			return
		}
	}
	for i, e := range blk.Succs {
		// The last edge takes ownership of st instead of cloning: st is
		// dead after this loop, so straight-line code (one successor)
		// traverses with zero state copies. Traversal order, and hence
		// every report, is unchanged.
		next := st
		if i < len(blk.Succs)-1 {
			next = st.Clone()
		}
		if blk.Cond != nil {
			r.ch.Branch(next, blk.Cond, e.Branch, &r.ctx)
		}
		r.visit(e.To, next, onPath)
	}
}

func (r *runner) node(st State, n cast.Node) {
	switch x := n.(type) {
	case *cast.VarDecl:
		if x.Init != nil {
			r.emitExpr(st, x.Init)
		}
		r.fire(st, Event{Kind: EvDecl, Decl: x, Pos: x.NamePos})
	case *cast.ReturnStmt:
		// The returned expression's events were emitted when the builder
		// placed it ahead of the ReturnStmt node; the builder emits the
		// expr as part of the return unit here instead:
		r.fire(st, Event{Kind: EvReturn, Expr: x.X, Pos: x.ReturnPos})
	case cast.Expr:
		r.emitExpr(st, x)
	}
}

// emitExpr walks e in evaluation order emitting events.
func (r *runner) emitExpr(st State, e cast.Expr) {
	switch x := e.(type) {
	case nil:
		return
	case *cast.Ident:
		r.fire(st, Event{Kind: EvUse, Expr: x, Pos: x.NamePos})
	case *cast.IntLit, *cast.FloatLit, *cast.CharLit, *cast.StringLit, *cast.SizeofTypeExpr:
		return
	case *cast.UnaryExpr:
		switch x.Op {
		case ctoken.Star:
			r.emitExpr(st, x.X)
			r.fire(st, Event{Kind: EvDeref, Ptr: x.X, Pos: x.OpPos})
		case ctoken.KwSizeof:
			// sizeof does not evaluate its operand: no events.
			return
		case ctoken.Inc, ctoken.Dec:
			r.emitExpr(st, x.X)
			r.fire(st, Event{Kind: EvAssign, LHS: x.X, Pos: x.OpPos})
		case ctoken.Amp:
			// &x computes an address; if x itself contains dereferences
			// they still count, but a bare &ident is not a use.
			if _, isIdent := x.X.(*cast.Ident); !isIdent {
				r.emitExpr(st, x.X)
			}
		default:
			r.emitExpr(st, x.X)
		}
	case *cast.PostfixExpr:
		r.emitExpr(st, x.X)
		r.fire(st, Event{Kind: EvAssign, LHS: x.X, Pos: x.X.Pos()})
	case *cast.BinaryExpr:
		r.emitExpr(st, x.X)
		r.emitExpr(st, x.Y)
	case *cast.AssignExpr:
		r.emitExpr(st, x.R)
		// LHS: inner dereferences happen, and the location is written.
		r.emitLValue(st, x.L)
		r.fire(st, Event{Kind: EvAssign, LHS: x.L, RHS: x.R, Pos: x.L.Pos()})
	case *cast.CondExpr:
		r.emitExpr(st, x.Cond)
		// Both arms are emitted on this path: a deliberate approximation
		// (in-expression ternaries are rare in the code we check).
		r.emitExpr(st, x.Then)
		r.emitExpr(st, x.Else)
	case *cast.CallExpr:
		if _, isIdent := x.Fun.(*cast.Ident); !isIdent {
			r.emitExpr(st, x.Fun)
		}
		for _, a := range x.Args {
			r.emitExpr(st, a)
		}
		r.fire(st, Event{Kind: EvCall, Call: x, Pos: x.Lparen})
	case *cast.IndexExpr:
		r.emitExpr(st, x.X)
		r.emitExpr(st, x.Index)
		r.fire(st, Event{Kind: EvDeref, Ptr: x.X, Pos: x.X.Pos()})
	case *cast.MemberExpr:
		r.emitExpr(st, x.X)
		if x.Arrow {
			r.fire(st, Event{Kind: EvDeref, Ptr: x.X, Pos: x.MemPos})
		}
		r.fire(st, Event{Kind: EvUse, Expr: x, Pos: x.MemPos})
	case *cast.CastExpr:
		r.emitExpr(st, x.X)
	case *cast.CommaExpr:
		r.emitExpr(st, x.X)
		r.emitExpr(st, x.Y)
	case *cast.InitListExpr:
		for _, it := range x.Items {
			r.emitExpr(st, it)
		}
	}
}

// emitLValue emits the evaluation events of an assignment target: the
// address computation evaluates (and dereferences) everything except the
// outermost location itself.
func (r *runner) emitLValue(st State, l cast.Expr) {
	switch x := l.(type) {
	case *cast.Ident:
		// Writing an ident evaluates nothing.
	case *cast.UnaryExpr:
		if x.Op == ctoken.Star {
			r.emitExpr(st, x.X)
			r.fire(st, Event{Kind: EvDeref, Ptr: x.X, Pos: x.OpPos})
			return
		}
		r.emitExpr(st, x)
	case *cast.MemberExpr:
		r.emitExpr(st, x.X)
		if x.Arrow {
			r.fire(st, Event{Kind: EvDeref, Ptr: x.X, Pos: x.MemPos})
		}
	case *cast.IndexExpr:
		r.emitExpr(st, x.X)
		r.emitExpr(st, x.Index)
		r.fire(st, Event{Kind: EvDeref, Ptr: x.X, Pos: x.X.Pos()})
	default:
		r.emitExpr(st, l)
	}
}
