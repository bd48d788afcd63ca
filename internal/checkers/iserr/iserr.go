// Package iserr implements the IS_ERR consistency checker of Table 1 /
// Section 8.3: "must IS_ERR be used to check routine <F>'s returned
// result?" A routine whose result is checked with IS_ERR anywhere must
// always be checked that way — a caller testing it against null (or not
// at all) misses the encoded error pointer. Conversely, IS_ERR applied to
// a routine nobody else checks that way is itself flagged (the inverse
// direction).
//
// The two directions are the template "must use IS_ERR" and its inverse,
// counted from the same observations. Each routine is ranked on its
// majority side: the minority side's sites are the errors, ranked by the
// z statistic of the majority's evidence.
package iserr

import (
	"fmt"
	"strings"

	"deviant/internal/cast"
	"deviant/internal/ctoken"
	"deviant/internal/engine"
	"deviant/internal/latent"
	"deviant/internal/report"
	"deviant/internal/stats"
)

// Checker accumulates IS_ERR usage evidence across a program.
type Checker struct {
	conv *latent.Conventions
	p0   float64

	// Per callee, one observation per resolved result, counted twice:
	// use has "must use IS_ERR" (counter-example: any other use) and
	// never its inverse (counter-example: an IS_ERR check), so each side
	// keeps its own sites until the majority picks one.
	use, never stats.Evidence[string]
}

// New returns an empty IS_ERR checker.
func New(conv *latent.Conventions) *Checker {
	return &Checker{conv: conv, p0: stats.DefaultP0}
}

// Name implements engine.Checker.
func (c *Checker) Name() string { return "iserr" }

// SetP0 overrides the expected example probability used for z ranking
// (deviant's -p0 flag; defaults to stats.DefaultP0).
func (c *Checker) SetP0(p0 float64) { c.p0 = p0 }

type tracked struct {
	callee string
}

type state struct {
	vars map[string]tracked
}

func (s *state) Clone() engine.State {
	ns := &state{}
	if len(s.vars) > 0 {
		ns.vars = make(map[string]tracked, len(s.vars))
		for k, v := range s.vars {
			ns.vars[k] = v
		}
	}
	return ns
}

func (s *state) Key() string {
	if len(s.vars) == 0 {
		return ""
	}
	return string(s.AppendKey(nil))
}

// AppendKey implements engine.AppendKeyer: the tracked bindings in
// ascending key order, built without allocating.
func (s *state) AppendKey(b []byte) []byte {
	for k := engine.NextKey(s.vars, ""); k != ""; k = engine.NextKey(s.vars, k) {
		b = append(b, k...)
		b = append(b, '=')
		b = append(b, s.vars[k].callee...)
		b = append(b, ';')
	}
	return b
}

// NewState implements engine.Checker. The tracked-variable map is
// allocated on first binding: most functions never call an ERR_PTR
// returner, and the engine creates one state per function plus one per
// branch clone.
func (c *Checker) NewState(*cast.FuncDecl) engine.State {
	return &state{}
}

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
	}
	return ""
}

// Event implements engine.Checker.
func (c *Checker) Event(st engine.State, ev *engine.Event, ctx *engine.Ctx) {
	s := st.(*state)
	switch ev.Kind {
	case engine.EvDecl:
		if ev.Decl.Init != nil {
			c.bind(s, ev.Decl.Name, ev.Decl.Init)
		}
	case engine.EvAssign:
		if k := keyOf(ev.LHS); k != "" {
			if ev.RHS != nil {
				c.bind(s, k, ev.RHS)
			} else {
				delete(s.vars, k)
			}
		}
	case engine.EvDeref:
		// A dereference before any IS_ERR check resolves the instance as
		// "used otherwise".
		c.resolveOther(s, keyOf(ev.Ptr), ev.Pos)
	case engine.EvCall:
		name := cast.CalleeName(ev.Call)
		if name == c.conv.ErrPtrCheck || name == "PTR_ERR" {
			return // handled at Branch / not a use
		}
		for _, a := range ev.Call.Args {
			c.resolveOther(s, keyOf(a), ev.Pos)
		}
	case engine.EvReturn:
		if ev.Expr != nil {
			c.resolveOther(s, keyOf(ev.Expr), ev.Pos)
		}
	}
}

func (c *Checker) bind(s *state, key string, rhs cast.Expr) {
	rhs = cast.StripParensAndCasts(rhs)
	if call, ok := rhs.(*cast.CallExpr); ok {
		if callee := cast.CalleeName(call); callee != "" && callee != c.conv.ErrPtrCheck {
			if s.vars == nil {
				s.vars = make(map[string]tracked)
			}
			s.vars[key] = tracked{callee: callee}
			return
		}
	}
	delete(s.vars, key)
}

func (c *Checker) resolveOther(s *state, key string, pos ctoken.Pos) {
	if key == "" {
		return
	}
	tr, ok := s.vars[key]
	if !ok {
		return
	}
	c.observe(tr.callee, false, pos)
	delete(s.vars, key)
}

// observe counts one resolved result of callee: checked with IS_ERR, or
// used some other way.
func (c *Checker) observe(callee string, isErr bool, pos ctoken.Pos) {
	c.use.Check(callee, !isErr, pos)
	c.never.Check(callee, isErr, pos)
}

// Branch implements engine.Checker: IS_ERR(v) resolves v's instance as
// properly checked; a null-shaped test of v resolves it as "checked
// otherwise" (the classic wrong-predicate bug).
func (c *Checker) Branch(st engine.State, cond cast.Expr, val bool, ctx *engine.Ctx) {
	s := st.(*state)
	cond = cast.StripParensAndCasts(cond)
	// Branch runs once per outgoing edge with a cloned state; count the
	// observation on the true arm only, but resolve the instance in both
	// clones so neither arm re-counts it later.
	if call, ok := cond.(*cast.CallExpr); ok {
		if cast.CalleeName(call) == c.conv.ErrPtrCheck && len(call.Args) == 1 {
			key := keyOf(call.Args[0])
			if tr, ok := s.vars[key]; ok {
				if val {
					c.observe(tr.callee, true, cond.Pos())
				}
				delete(s.vars, key)
			}
		}
		return
	}
	// Null-shaped checks: p == NULL, !p, p != NULL, bare p.
	if key := nullCheckedVar(cond); key != "" {
		if val {
			c.resolveOther(s, key, cond.Pos())
		} else {
			delete(s.vars, key)
		}
	}
}

func nullCheckedVar(cond cast.Expr) string {
	switch x := cond.(type) {
	case *cast.BinaryExpr:
		if x.Op != ctoken.EqEq && x.Op != ctoken.NotEq {
			return ""
		}
		if isNull(x.Y) {
			return keyOf(x.X)
		}
		if isNull(x.X) {
			return keyOf(x.Y)
		}
		return ""
	default:
		return keyOf(cond)
	}
}

func isNull(e cast.Expr) bool {
	switch x := cast.StripParensAndCasts(e).(type) {
	case *cast.IntLit:
		return x.Value == 0
	case *cast.Ident:
		return x.Name == "NULL"
	}
	return false
}

// FuncEnd implements engine.Checker.
func (c *Checker) FuncEnd(engine.State, *engine.Ctx) {}

// Fork returns an empty checker sharing c's configuration, for one
// worker's shard of functions.
func (c *Checker) Fork() *Checker { f := New(c.conv); f.p0 = c.p0; return f }

// Partial is the evidence a run of the checker over some functions
// counted, on both sides, sharing no memory with the checker that counted
// it.
type Partial struct {
	use, never []stats.Item[string]
}

// TakePartial moves the evidence c counted since the last take into an
// exact-size Partial (empty when there is none) and resets c for the
// next function.
func (c *Checker) TakePartial() Partial { return Partial{c.use.Take(), c.never.Take()} }

// Fold adds p's evidence to c without modifying p (see
// stats.Evidence.AddItems).
func (c *Checker) Fold(p Partial) {
	c.use.AddItems(p.use)
	c.never.AddItems(p.never)
}

// Merge folds a fork's evidence into c (see Fold) and empties the fork.
func (c *Checker) Merge(o *Checker) { c.Fold(o.TakePartial()) }

// Derived is the IS_ERR evidence for one routine, counted on its
// majority side: Errors are the minority's results.
type Derived struct {
	stats.Instance[string]
	// MustUseIsErr is true when the IS_ERR side is the majority (ties
	// included).
	MustUseIsErr bool
}

// mustUse reports whether IS_ERR checks are the majority of a routine's
// results, given its "must use IS_ERR" counter.
func mustUse(use stats.Counter) bool { return 2*use.Errors <= use.Checks }

// Ranked returns per-routine evidence ordered by the z of the majority
// belief.
func (c *Checker) Ranked() []Derived {
	ins := c.use.Instances()
	for i, in := range ins {
		if !mustUse(in.Counter) {
			ins[i].Counter = c.never.Counter(in.Key)
		}
	}
	ranked := stats.Rank(ins, stats.Order[string]{P0: c.p0, Compare: strings.Compare})
	out := make([]Derived, len(ranked))
	for i, in := range ranked {
		out[i] = Derived{Instance: in, MustUseIsErr: mustUse(c.use.Counter(in.Key))}
	}
	return out
}

// Finish reports contradictions: for each routine with evidence on both
// sides, the minority side's sites are flagged, ranked by the majority's
// z.
func (c *Checker) Finish(col *report.Collector) {
	for _, d := range c.Ranked() {
		if !d.Reportable(stats.AnyEvidence) {
			continue
		}
		if d.MustUseIsErr {
			col.AddStats("iserr", fmt.Sprintf("result of %s must be checked with IS_ERR", d.Key),
				c.use.Sites(d.Key), d.Score(), d.Counter,
				fmt.Sprintf("result of %s used without IS_ERR check (%d/%d callers use IS_ERR); a null test misses encoded error pointers",
					d.Key, d.Examples(), d.Checks))
		} else {
			col.AddStats("iserr", fmt.Sprintf("result of %s must never be checked with IS_ERR", d.Key),
				c.never.Sites(d.Key), d.Score(), d.Counter,
				fmt.Sprintf("IS_ERR applied to result of %s, which %d/%d callers treat as a plain pointer",
					d.Key, d.Examples(), d.Checks))
		}
	}
}
