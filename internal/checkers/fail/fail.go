// Package fail derives the rule template "can routine <f> fail?" from
// code (Section 8 / Table 2). The population is uses of f's result; the
// examples are results checked (against null or truth-tested) before use.
// A dereference of an unchecked result is an error candidate, ranked by
// the z statistic of f's evidence, boosted when f's name looks like an
// allocator (latent specification).
//
// The inverse principle applies too: InverseRanked ranks routines that
// are essentially never checked — checking such a routine's result is
// itself deviant (a spurious check).
package fail

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

// Checker accumulates evidence across a program.
type Checker struct {
	conv *latent.Conventions
	p0   float64
	ev   stats.Evidence[string] // key: callee; counter-example: unchecked dereference
}

// New returns an empty can-fail deriver.
func New(conv *latent.Conventions) *Checker {
	return &Checker{conv: conv, p0: stats.DefaultP0}
}

// Name implements engine.Checker.
func (c *Checker) Name() string { return "fail" }

// SetP0 overrides the expected example probability used for z ranking
// (deviant's -p0 flag; defaults to stats.DefaultP0).
func (c *Checker) SetP0(p0 float64) { c.p0 = p0 }

type tracked struct {
	callee  string
	checked bool
}

// state maps variable keys to the call whose fresh result they hold.
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
		v := s.vars[k]
		b = append(b, k...)
		b = append(b, '=')
		b = append(b, v.callee...)
		if v.checked {
			b = append(b, 'c')
		} else {
			b = append(b, 'u')
		}
		b = append(b, ';')
	}
	return b
}

// NewState implements engine.Checker. The tracked-result map is
// allocated on first binding: most functions never bind a checked
// callee's result, and the engine creates one state per function plus
// one per branch clone.
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

// callResult returns the callee name if e is (a cast of) a direct call.
func callResult(e cast.Expr) string {
	e = cast.StripParensAndCasts(e)
	if call, ok := e.(*cast.CallExpr); ok {
		return cast.CalleeName(call)
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
		k := keyOf(ev.Ptr)
		if k == "" {
			return
		}
		tr, ok := s.vars[k]
		if !ok {
			return
		}
		// One outcome per tracked result: either it was checked first
		// (example) or this dereference is unchecked (counter-example).
		c.ev.Check(tr.callee, !tr.checked, ev.Pos)
		delete(s.vars, k)
	}
}

func (c *Checker) bind(s *state, key string, rhs cast.Expr) {
	if callee := callResult(rhs); callee != "" {
		if s.vars == nil {
			s.vars = make(map[string]tracked)
		}
		s.vars[key] = tracked{callee: callee}
		return
	}
	delete(s.vars, key)
}

// Branch implements engine.Checker: a null comparison or truth test of a
// tracked variable marks the result checked on both arms. (The checked
// bit records that the programmer tested the result at all; which arm
// survives is the null checker's business, not ours.)
func (c *Checker) Branch(st engine.State, cond cast.Expr, val bool, ctx *engine.Ctx) {
	s := st.(*state)
	key := checkedVar(cond)
	if key == "" {
		return
	}
	if tr, ok := s.vars[key]; ok && !tr.checked {
		tr.checked = true
		s.vars[key] = tr
	}
}

// checkedVar extracts the variable a branch condition tests against
// null/zero, or "" if the condition has another shape.
func checkedVar(cond cast.Expr) string {
	switch x := cast.StripParensAndCasts(cond).(type) {
	case *cast.CallExpr:
		// A predicate applied to the result (IS_ERR(d), unlikely(!p))
		// counts as checking it.
		if len(x.Args) == 1 {
			return keyOf(x.Args[0])
		}
		return ""
	case *cast.BinaryExpr:
		if x.Op != ctoken.EqEq && x.Op != ctoken.NotEq &&
			x.Op != ctoken.Lt && x.Op != ctoken.Le &&
			x.Op != ctoken.Gt && x.Op != ctoken.Ge {
			return ""
		}
		if k := keyOf(x.X); k != "" && isConstish(x.Y) {
			return k
		}
		if k := keyOf(x.Y); k != "" && isConstish(x.X) {
			return k
		}
		return ""
	default:
		return keyOf(cond)
	}
}

func isConstish(e cast.Expr) bool {
	switch x := cast.StripParensAndCasts(e).(type) {
	case *cast.IntLit:
		return true
	case *cast.UnaryExpr:
		return x.Op == ctoken.Minus && isConstish(x.X)
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
// counted, sharing no memory with the checker that counted it.
type Partial struct {
	ev []stats.Item[string]
}

// TakePartial moves the evidence c counted since the last take into an
// exact-size Partial (empty when there is none) and resets c for the
// next function.
func (c *Checker) TakePartial() Partial { return Partial{c.ev.Take()} }

// Fold adds p's evidence to c without modifying p (see
// stats.Evidence.AddItems), so folding per-function partials in function
// order reproduces the serial evidence.
func (c *Checker) Fold(p Partial) { c.ev.AddItems(p.ev) }

// Merge folds a fork's evidence into c (see Fold) and empties the fork.
func (c *Checker) Merge(o *Checker) { c.Fold(o.TakePartial()) }

// Derived is the evidence for one routine.
type Derived = stats.Instance[string]

// Ranked returns the derived "can fail" instances ordered by score (z
// plus an allocator-name boost).
func (c *Checker) Ranked() []Derived {
	return c.ev.Rank(stats.Order[string]{P0: c.p0, Boost: c.allocBoost, Compare: strings.Compare})
}

// allocBoost is the latent-specification bonus for allocator-like names.
func (c *Checker) allocBoost(fn string) float64 {
	if c.conv.LooksAlloc(fn) {
		return 1
	}
	return 0
}

// InverseRanked ranks the negated template "F never fails" (§5's inverse
// principle): functions whose results are essentially never checked.
func (c *Checker) InverseRanked() []Derived {
	return c.ev.Rank(stats.Order[string]{P0: c.p0, Inverse: true, Compare: strings.Compare})
}

// Counter exposes one routine's evidence.
func (c *Checker) Counter(fn string) stats.Counter { return c.ev.Counter(fn) }

// Finish reports unchecked uses of results from routines that are checked
// elsewhere, ranked by the routine's score.
func (c *Checker) Finish(col *report.Collector) {
	for _, d := range c.Ranked() {
		if d.Reportable(stats.AnyEvidence) {
			col.AddStats("fail", fmt.Sprintf("result of %s must be checked before use", d.Key),
				c.ev.Sites(d.Key), d.Score(), d.Counter,
				fmt.Sprintf("result of %s dereferenced without a check; %d/%d callers check it",
					d.Key, d.Examples(), d.Checks))
		}
	}
}
