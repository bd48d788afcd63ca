// Package null implements the internal null consistency checkers of
// Section 6. One automaton tracks per-pointer belief sets and flags three
// kinds of contradictory or redundant beliefs:
//
//  1. check-then-use: a pointer believed null is dereferenced;
//  2. use-then-check: a dereferenced pointer is subsequently checked
//     against null (error only if every path into the check carries the
//     dereference belief);
//  3. redundant checks: a pointer whose value is already known is checked
//     again (error only if every path agrees on the known value).
//
// Beliefs originating in macro expansions are not tracked (§6: almost all
// false positives came from context-insensitive checks inside macros), and
// paths through panic/BUG were already pruned by the CFG builder.
package null

import (
	"fmt"
	"strconv"
	"strings"

	"deviant/internal/belief"
	"deviant/internal/cast"
	"deviant/internal/ctoken"
	"deviant/internal/engine"
	"deviant/internal/report"
)

// SpanThreshold is the maximum distance in lines between establishing a
// belief and contradicting it for use-then-check and redundant-check
// errors; farther apart is considered robust programming practice (§6:
// "We arbitrarily set this threshold to be roughly 10 executable lines").
const SpanThreshold = 10

// Config enables individual sub-checkers.
type Config struct {
	CheckThenUse   bool
	UseThenCheck   bool
	RedundantCheck bool
	// TrackMacros disables the macro-origin truncation (ablation knob;
	// the paper's configuration leaves this false).
	TrackMacros bool
}

// AllChecks enables the full checker.
func AllChecks() Config {
	return Config{CheckThenUse: true, UseThenCheck: true, RedundantCheck: true}
}

// Checker is the null consistency automaton. One Checker may be run over
// many functions; call Finish once at the end to emit the all-path
// (use-then-check / redundant) errors.
type Checker struct {
	cfgn Config
	// obs aggregates, per null-check site, the belief observations
	// arriving on every path (use-then-check and redundant-check demand
	// agreement across paths), in first-observation order; obsIdx finds
	// a site's entry by its key.
	obs    []checkObservation
	obsIdx map[string]int
	// keyCache memoizes keyOf per AST node: the engine revisits the same
	// expressions once per path, and member-chain keys concatenate.
	// Per-fork (single goroutine), like obsBuf below.
	keyCache map[cast.Expr]string
	// obsBuf is the reusable scratch for observe's site keys.
	obsBuf []byte
}

type checkObservation struct {
	site     string // pos and key, the site's identity in obsIdx
	pos      ctoken.Pos
	key      string
	facts    belief.Fact // union of facts over all visiting paths
	srcs     uint8       // set of belief.Source values seen, one bit each
	minSpan  int
	derefPos int // line of the most recent deref feeding the belief
}

func (o *checkObservation) hasSrc(s belief.Source) bool { return o.srcs&(1<<s) != 0 }

// New returns a checker with the given configuration.
func New(cfgn Config) *Checker {
	return &Checker{
		cfgn:     cfgn,
		obsIdx:   make(map[string]int),
		keyCache: make(map[cast.Expr]string),
	}
}

// Name implements engine.Checker.
func (c *Checker) Name() string { return "null" }

// state is the per-path belief environment plus the function's pointer
// key universe. The environment is embedded by value so a path state is
// one allocation, not a state box plus an Env box.
type state struct {
	env belief.Env
	// ptrKeys is shared (read-only) across the function's states.
	ptrKeys map[string]bool
}

func (s *state) Clone() engine.State {
	return &state{env: s.env.CloneValue(), ptrKeys: s.ptrKeys}
}

func (s *state) Key() string { return s.env.Key() }

// AppendKey implements engine.AppendKeyer via the environment's
// allocation-free encoder.
func (s *state) AppendKey(b []byte) []byte { return s.env.AppendKey(b) }

// NewState implements engine.Checker: it computes the pointer-key universe
// for fn (declared pointer variables plus anything dereferenced).
func (c *Checker) NewState(fn *cast.FuncDecl) engine.State {
	ptr := make(map[string]bool)
	for _, p := range fn.Params {
		if p.Type != nil && p.Type.IsPointer() && p.Name != "" {
			ptr[p.Name] = true
		}
	}
	cast.Inspect(fn.Body, func(n cast.Node) bool {
		switch x := n.(type) {
		case *cast.VarDecl:
			if x.Type != nil && x.Type.IsPointer() {
				ptr[x.Name] = true
			}
		case *cast.UnaryExpr:
			if x.Op == ctoken.Star {
				if k := keyOf(x.X); k != "" {
					ptr[k] = true
				}
			}
		case *cast.MemberExpr:
			if x.Arrow {
				if k := keyOf(x.X); k != "" {
					ptr[k] = true
				}
			}
		case *cast.IndexExpr:
			if k := keyOf(x.X); k != "" {
				ptr[k] = true
			}
		}
		return true
	})
	return &state{ptrKeys: ptr}
}

// keyOfCached is keyOf memoized per AST node on the fork-local cache.
func (c *Checker) keyOfCached(e cast.Expr) string {
	if k, ok := c.keyCache[e]; ok {
		return k
	}
	k := keyOf(e)
	c.keyCache[e] = k
	return k
}

// keyOf canonicalizes a slot-instance expression: identifiers, member
// chains and single dereferences of those. Returns "" for untrackable
// expressions.
func keyOf(e cast.Expr) string {
	e = cast.StripParensAndCasts(e)
	switch x := e.(type) {
	case *cast.Ident:
		return x.Name
	case *cast.MemberExpr:
		base := keyOf(x.X)
		if base == "" {
			return ""
		}
		if x.Arrow {
			return base + "->" + x.Member
		}
		return base + "." + x.Member
	case *cast.UnaryExpr:
		if x.Op == ctoken.Star {
			base := keyOf(x.X)
			if base == "" {
				return ""
			}
			return "*" + base
		}
	}
	return ""
}

// isNullExpr recognizes null constants: 0, NULL, (void*)0.
func isNullExpr(e cast.Expr) bool {
	e = cast.StripParensAndCasts(e)
	switch x := e.(type) {
	case *cast.IntLit:
		return x.Value == 0
	case *cast.Ident:
		return x.Name == "NULL" || x.Name == "nil"
	}
	return false
}

// Event implements engine.Checker.
func (c *Checker) Event(st engine.State, ev *engine.Event, ctx *engine.Ctx) {
	s := st.(*state)
	switch ev.Kind {
	case engine.EvDeref:
		c.deref(s, ev.Ptr, ev.Pos, ctx)
	case engine.EvAssign:
		c.assign(s, ev.LHS, ev.RHS)
	case engine.EvDecl:
		if ev.Decl.Init != nil {
			c.assignKey(s, ev.Decl.Name, ev.Decl.Init, ev.Pos)
		}
	case engine.EvCall:
		c.call(s, ev.Call)
	}
}

func (c *Checker) deref(s *state, ptr cast.Expr, pos ctoken.Pos, ctx *engine.Ctx) {
	if !c.cfgn.TrackMacros && ptr.FromMacro() {
		return
	}
	key := c.keyOfCached(ptr)
	if key == "" || !s.ptrKeys[key] {
		return
	}
	info := s.env.Get(key)
	if c.cfgn.CheckThenUse && info.Facts.Exactly(belief.Null) {
		span := pos.Line - info.Line
		if span < 0 {
			span = -span
		}
		how := "checked against null"
		if info.Src == belief.SrcAssign {
			how = "assigned null"
		}
		ctx.Reports.AddMust(
			"null/check-then-use",
			"do not dereference null pointer "+key,
			pos,
			report.Serious,
			span,
			fmt.Sprintf("dereferencing %q which was %s at line %d", key, how, info.Line),
		)
	}
	// The dereference implies the belief that key is not null.
	src := info.Src
	if !info.Facts.Exactly(belief.NotNull) || src != belief.SrcDeref {
		src = belief.SrcDeref
	}
	s.env.Set(key, belief.Info{Facts: belief.NotNull, Src: src, Line: pos.Line})
}

func (c *Checker) assign(s *state, lhs, rhs cast.Expr) {
	key := c.keyOfCached(lhs)
	if key == "" {
		return
	}
	if rhs == nil { // ++/--
		s.env.ForgetDerived(key)
		return
	}
	c.assignKey(s, key, rhs, lhs.Pos())
}

func (c *Checker) assignKey(s *state, key string, rhs cast.Expr, pos ctoken.Pos) {
	s.env.ForgetDerived(key)
	if !s.ptrKeys[key] {
		return
	}
	if rhs.FromMacro() && !c.cfgn.TrackMacros {
		return
	}
	if isNullExpr(rhs) {
		s.env.Set(key, belief.Info{Facts: belief.Null, Src: belief.SrcAssign, Line: pos.Line})
		return
	}
	// p = q copies q's belief.
	if rk := c.keyOfCached(rhs); rk != "" {
		if info := s.env.Get(rk); info.Facts != belief.Unknown {
			s.env.Set(key, belief.Info{Facts: info.Facts, Src: belief.SrcAssign, Line: pos.Line})
			return
		}
	}
	// &x is never null.
	if u, ok := cast.StripParensAndCasts(rhs).(*cast.UnaryExpr); ok && u.Op == ctoken.Amp {
		s.env.Set(key, belief.Info{Facts: belief.NotNull, Src: belief.SrcAssign, Line: pos.Line})
	}
}

// call invalidates beliefs for anything whose address escapes into the
// call (the callee may reassign it).
func (c *Checker) call(s *state, call *cast.CallExpr) {
	for _, a := range call.Args {
		if u, ok := cast.StripParensAndCasts(a).(*cast.UnaryExpr); ok && u.Op == ctoken.Amp {
			if k := c.keyOfCached(u.X); k != "" {
				s.env.ForgetDerived(k)
			}
		}
	}
}

// Branch implements engine.Checker: a branch on a null comparison (or a
// bare pointer truth test) both *observes* the pre-branch belief (feeding
// use-then-check and redundant-check) and *establishes* the post-branch
// belief.
func (c *Checker) Branch(st engine.State, cond cast.Expr, val bool, ctx *engine.Ctx) {
	s := st.(*state)
	key, nullWhenTrue, ok := c.nullCheckShape(cond)
	if !ok || !s.ptrKeys[key] {
		return
	}
	if cond.FromMacro() && !c.cfgn.TrackMacros {
		return
	}

	// Observe the pre-branch belief once per check site (val==true arm;
	// both arms share the same pre-branch state).
	if val {
		c.observe(s, key, cond.Pos(), ctx)
	}

	// Establish the post-branch belief.
	facts := belief.NotNull
	if nullWhenTrue == val {
		facts = belief.Null
	}
	s.env.Set(key, belief.Info{Facts: facts, Src: belief.SrcCheck, Line: cond.Pos().Line})
}

// observe accumulates what this path believed just before a null check.
func (c *Checker) observe(s *state, key string, pos ctoken.Pos, ctx *engine.Ctx) {
	info := s.env.Get(key)
	// Build the site key in the reusable scratch; the map lookup on a
	// string(b) conversion does not allocate, only a first-visit insert
	// does.
	b := append(c.obsBuf[:0], pos.File...)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(pos.Line), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(pos.Col), 10)
	b = append(b, '|')
	b = append(b, key...)
	c.obsBuf = b
	i, ok := c.obsIdx[string(b)]
	if !ok {
		site := string(b)
		i = len(c.obs)
		c.obs = append(c.obs, checkObservation{site: site, pos: pos, key: key, minSpan: 1 << 30})
		c.obsIdx[site] = i
	}
	obs := &c.obs[i]
	obs.facts |= info.Facts
	if info.Facts == belief.Unknown {
		// A path with no knowledge defeats "known on every path".
		obs.facts = belief.Either
	}
	obs.srcs |= 1 << info.Src
	span := pos.Line - info.Line
	if span < 0 {
		span = -span
	}
	if info.Facts != belief.Unknown && span < obs.minSpan {
		obs.minSpan = span
	}
	if info.Src == belief.SrcDeref || info.Src == belief.SrcMixed {
		obs.derefPos = info.Line
	}
}

// nullCheckShape decides whether cond is a null check of some slot and
// returns (key, nullWhenTrue). Recognized shapes: p == NULL, p != NULL,
// NULL == p, and the bare truth test p (null when false).
func (c *Checker) nullCheckShape(cond cast.Expr) (string, bool, bool) {
	switch x := cast.StripParensAndCasts(cond).(type) {
	case *cast.BinaryExpr:
		if x.Op != ctoken.EqEq && x.Op != ctoken.NotEq {
			return "", false, false
		}
		var side cast.Expr
		switch {
		case isNullExpr(x.Y):
			side = x.X
		case isNullExpr(x.X):
			side = x.Y
		default:
			return "", false, false
		}
		key := c.keyOfCached(side)
		if key == "" {
			return "", false, false
		}
		return key, x.Op == ctoken.EqEq, true
	default:
		key := c.keyOfCached(cond)
		if key == "" {
			return "", false, false
		}
		return key, false, true
	}
}

// FuncEnd implements engine.Checker.
func (c *Checker) FuncEnd(engine.State, *engine.Ctx) {}

// Finish emits the errors that require agreement across every path into a
// check site: use-then-check and redundant-check. Call it once after all
// functions have been analyzed.
func (c *Checker) Finish(col *report.Collector) {
	for i := range c.obs {
		obs := &c.obs[i]
		// All paths must agree on a precise value.
		var known belief.Fact
		switch {
		case obs.facts.Exactly(belief.NotNull):
			known = belief.NotNull
		case obs.facts.Exactly(belief.Null):
			known = belief.Null
		default:
			continue
		}
		if obs.minSpan > SpanThreshold {
			continue // distant enough to be defensive programming
		}
		derefed := obs.hasSrc(belief.SrcDeref) || obs.hasSrc(belief.SrcMixed)
		if c.cfgn.UseThenCheck && known == belief.NotNull && derefed {
			col.AddMust(
				"null/use-then-check",
				"do not check pointer "+obs.key+" after dereferencing it",
				obs.pos,
				report.Serious,
				obs.minSpan,
				fmt.Sprintf("checking %q against null, but it was dereferenced at line %d; either the check is impossible or the dereference can crash", obs.key, obs.derefPos),
			)
			continue
		}
		if c.cfgn.RedundantCheck && !derefed {
			col.AddMust(
				"null/redundant-check",
				"do not test pointer "+obs.key+" whose value is known",
				obs.pos,
				report.Minor,
				obs.minSpan,
				fmt.Sprintf("redundant check: %q is already known to be %s here", obs.key, strings.ToLower(known.String())),
			)
		}
	}
}

// Reset clears accumulated cross-path observations (for reuse across
// corpora).
func (c *Checker) Reset() {
	clear(c.obs)
	c.obs = c.obs[:0]
	clear(c.obsIdx)
}

// Fork returns a checker with c's configuration and an empty observation
// table, for one worker's shard of functions.
func (c *Checker) Fork() *Checker { return New(c.cfgn) }

// Partial is what a run of the checker over some functions observed: its
// check-site observations, as values that share nothing with the checker
// that produced them.
type Partial struct {
	obs []checkObservation
}

// TakePartial moves everything c observed since the last take into an
// exact-size Partial (empty when c observed nothing) and resets c,
// keeping its tables' capacity and its key cache. A fork takes one
// partial per function; folding them in function order reproduces one
// fork's observations of all those functions.
func (c *Checker) TakePartial() Partial {
	if len(c.obs) == 0 {
		return Partial{}
	}
	p := Partial{obs: make([]checkObservation, len(c.obs))}
	copy(p.obs, c.obs)
	c.Reset()
	return p
}

// Fold adds p's observations to c, copying them: p is never modified and
// may be folded into any number of checkers. A check site belongs to
// exactly one function, so the partials of distinct functions observe
// disjoint sites and their union cannot depend on fold order; a colliding
// site is still folded field by field.
func (c *Checker) Fold(p Partial) {
	for _, o := range p.obs {
		i, ok := c.obsIdx[o.site]
		if !ok {
			c.obsIdx[o.site] = len(c.obs)
			c.obs = append(c.obs, o)
			continue
		}
		have := &c.obs[i]
		have.facts |= o.facts
		have.srcs |= o.srcs
		if o.minSpan < have.minSpan {
			have.minSpan = o.minSpan
		}
		if o.derefPos != 0 {
			have.derefPos = o.derefPos
		}
	}
}

// Merge folds a fork's observations into c (see Fold) and empties the
// fork.
func (c *Checker) Merge(o *Checker) { c.Fold(o.TakePartial()) }
