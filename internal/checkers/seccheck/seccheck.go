// Package seccheck derives the rule template "does security check <Y>
// protect <X>?" (Table 2). The examples are calls to X dominated by a
// branch on a permission predicate Y (capable(), suser(), ...); the
// population is all calls to X. Calls to X reachable without the check
// are the error candidates, ranked by the (X, Y) pair's z statistic.
package seccheck

import (
	"cmp"
	"fmt"
	"slices"

	"deviant/internal/cast"
	"deviant/internal/engine"
	"deviant/internal/report"
	"deviant/internal/stats"
)

// DefaultPredicates are the permission predicates recognized as security
// checks, per the Unix idiom set.
func DefaultPredicates() map[string]bool {
	return map[string]bool{
		"capable": true, "suser": true, "fsuser": true,
		"permission": true, "security_check": true, "access_ok": true,
	}
}

// Checker accumulates security-check evidence across a program.
type Checker struct {
	preds     map[string]bool
	predNames []string // preds, listed once for the per-call loop
	p0        float64

	ev stats.Evidence[Key] // counter-example: an unprotected call
	// seenPreds tracks which predicates were ever seen so the universe
	// of Y slots is bounded by reality.
	seenPreds map[string]bool
}

// Key is one (X, Y) slot instance: action X, guarded by check Y.
type Key struct {
	Action, Check string
}

// compareKeys orders keys by action, then check.
func compareKeys(a, b Key) int {
	return cmp.Or(cmp.Compare(a.Action, b.Action), cmp.Compare(a.Check, b.Check))
}

// New returns a checker using the given predicate set (nil = defaults).
func New(preds map[string]bool) *Checker {
	if preds == nil {
		preds = DefaultPredicates()
	}
	c := &Checker{preds: preds, p0: stats.DefaultP0, seenPreds: make(map[string]bool)}
	for y := range preds {
		c.predNames = append(c.predNames, y)
	}
	slices.Sort(c.predNames)
	return c
}

// Name implements engine.Checker.
func (c *Checker) Name() string { return "seccheck" }

// SetP0 overrides the expected example probability used for z ranking
// (deviant's -p0 flag; defaults to stats.DefaultP0).
func (c *Checker) SetP0(p0 float64) { c.p0 = p0 }

// state carries the set of predicates that dominated the current point.
type state struct {
	checked map[string]bool
}

func (s *state) Clone() engine.State {
	ns := &state{}
	if len(s.checked) > 0 {
		ns.checked = make(map[string]bool, len(s.checked))
		for k := range s.checked {
			ns.checked[k] = true
		}
	}
	return ns
}

func (s *state) Key() string {
	if len(s.checked) == 0 {
		return ""
	}
	return string(s.AppendKey(nil))
}

// AppendKey implements engine.AppendKeyer: the checked set in ascending
// order, comma-terminated, built without allocating.
func (s *state) AppendKey(b []byte) []byte {
	for k := engine.NextKey(s.checked, ""); k != ""; k = engine.NextKey(s.checked, k) {
		b = append(append(b, k...), ',')
	}
	return b
}

// NewState implements engine.Checker. The checked set is allocated on
// first insertion: most paths never see a predicate call, and the engine
// creates one state per function plus one per branch clone.
func (c *Checker) NewState(*cast.FuncDecl) engine.State {
	return &state{}
}

// Event implements engine.Checker: every non-predicate call is counted
// against each known predicate.
func (c *Checker) Event(st engine.State, ev *engine.Event, ctx *engine.Ctx) {
	if ev.Kind != engine.EvCall {
		return
	}
	s := st.(*state)
	name := cast.CalleeName(ev.Call)
	if name == "" || c.preds[name] {
		return
	}
	for _, y := range c.predNames {
		c.ev.Check(Key{name, y}, !s.checked[y], ev.Pos)
	}
}

// Branch implements engine.Checker: a branch whose condition calls a
// predicate marks the predicate checked on both arms. (Which arm is the
// privileged one varies with the idiom — "if (!capable(..)) return" and
// "if (suser()) { ... }" both occur — so domination by the check is what
// we measure, matching the template's "y checked before x".)
func (c *Checker) Branch(st engine.State, cond cast.Expr, val bool, ctx *engine.Ctx) {
	s := st.(*state)
	found := false
	cast.Inspect(cond, func(n cast.Node) bool {
		if call, ok := n.(*cast.CallExpr); ok {
			if name := cast.CalleeName(call); c.preds[name] {
				if s.checked == nil {
					s.checked = make(map[string]bool)
				}
				s.checked[name] = true
				c.seenPreds[name] = true
				found = true
			}
		}
		return !found
	})
}

// FuncEnd implements engine.Checker.
func (c *Checker) FuncEnd(engine.State, *engine.Ctx) {}

// Fork returns an empty checker sharing c's predicate set, for one
// worker's shard of functions.
func (c *Checker) Fork() *Checker {
	return &Checker{preds: c.preds, predNames: c.predNames, p0: c.p0, seenPreds: make(map[string]bool)}
}

// Merge folds a fork's evidence into c: evidence merges (see
// stats.Evidence.Merge) and seen-predicate sets union.
func (c *Checker) Merge(o *Checker) {
	c.ev.Merge(&o.ev)
	for k := range o.seenPreds {
		c.seenPreds[k] = true
	}
}

// Derived is the evidence for one (X, Y) instance.
type Derived = stats.Instance[Key]

// Ranked returns (X, Y) instances for predicates actually seen, ordered
// by z.
func (c *Checker) Ranked() []Derived {
	return slices.DeleteFunc(c.ev.Rank(stats.Order[Key]{P0: c.p0, Compare: compareKeys}),
		func(d Derived) bool { return !c.seenPreds[d.Key.Check] })
}

// Counter exposes the evidence for (x, y).
func (c *Checker) Counter(x, y string) stats.Counter { return c.ev.Counter(Key{x, y}) }

// Finish reports unprotected calls to actions that are usually guarded,
// ranked by z.
func (c *Checker) Finish(col *report.Collector) {
	for _, d := range c.Ranked() {
		if d.Reportable(stats.AnyEvidence) {
			col.AddStats("seccheck", fmt.Sprintf("security check %s must protect %s", d.Key.Check, d.Key.Action),
				c.ev.Sites(d.Key), d.Score(), d.Counter,
				fmt.Sprintf("%s called without a %s check; %d/%d call sites are guarded",
					d.Key.Action, d.Key.Check, d.Examples(), d.Checks))
		}
	}
}
