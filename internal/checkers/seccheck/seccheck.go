// Package seccheck derives the rule template "does security check <Y>
// protect <X>?" (Table 2). The examples are calls to X dominated by a
// branch on a permission predicate Y (capable(), suser(), ...); the
// population is all calls to X. Calls to X reachable without the check
// are the error candidates, ranked by the (X, Y) pair's z statistic.
package seccheck

import (
	"cmp"
	"fmt"

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
//
// The evidence factors like lockvar's: Checks(x, y) is the calls to x and
// Examples(x, y) the calls to x made with check y dominating, so a call
// costs one count for x plus one per dominating check (usually none), and
// its site goes once into a log keyed by (x, checked-set signature); the
// call is an error site of every (x, y) whose y the signature lacks.
type Checker struct {
	preds map[string]bool
	p0    float64

	calls   map[string]int // x → calls (= Checks of every (x, y))
	guarded map[Key]int    // (x, y) → calls of x with y checked (= Examples)
	log     stats.SetLog   // slot x, set: the checked predicates
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
	return &Checker{preds: preds, p0: stats.DefaultP0,
		calls: make(map[string]int), guarded: make(map[Key]int), seenPreds: make(map[string]bool)}
}

// Name implements engine.Checker.
func (c *Checker) Name() string { return "seccheck" }

// SetP0 overrides the expected example probability used for z ranking
// (deviant's -p0 flag; defaults to stats.DefaultP0).
func (c *Checker) SetP0(p0 float64) { c.p0 = p0 }

// state carries the set of predicates that dominated the current point.
// sig caches the set's signature between branches on a predicate, which
// are rare next to calls.
type state struct {
	checked map[string]bool
	sig     string
	sigOK   bool
}

// sigFor returns the checked set's cached signature ("" when empty).
func (s *state) sigFor() string {
	if !s.sigOK {
		s.sig, s.sigOK = s.Key(), true
	}
	return s.sig
}

func (s *state) Clone() engine.State {
	ns := &state{sig: s.sig, sigOK: s.sigOK}
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

// Event implements engine.Checker: every non-predicate call counts once
// for its callee, once per dominating check, and logs its site.
func (c *Checker) Event(st engine.State, ev *engine.Event, ctx *engine.Ctx) {
	if ev.Kind != engine.EvCall {
		return
	}
	s := st.(*state)
	name := cast.CalleeName(ev.Call)
	if name == "" || c.preds[name] {
		return
	}
	c.calls[name]++
	for y := range s.checked {
		c.guarded[Key{name, y}]++
	}
	c.log.Add(name, s.sigFor(), ev.Pos)
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
				s.sigOK = false
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
func (c *Checker) Fork() *Checker { f := New(c.preds); f.p0 = c.p0; return f }

// Partial is the evidence a run of the checker over some functions
// counted, sharing no memory with the checker that counted it.
type Partial struct {
	calls   []stats.Count[string]
	guarded []stats.Count[Key]
	sites   []stats.SetRec
	seen    []string
}

// TakePartial moves the evidence c counted since the last take into an
// exact-size Partial (empty when there is none) and resets c for the
// next function.
func (c *Checker) TakePartial() Partial {
	p := Partial{calls: stats.TakeCounts(c.calls), guarded: stats.TakeCounts(c.guarded), sites: c.log.Take()}
	if len(c.seenPreds) > 0 {
		p.seen = make([]string, 0, len(c.seenPreds))
		for y := range c.seenPreds {
			p.seen = append(p.seen, y)
		}
		clear(c.seenPreds)
	}
	return p
}

// Fold adds p's evidence to c without modifying p: counters sum, the site
// log appends in order under its cap, and seen-predicate sets union.
func (c *Checker) Fold(p Partial) {
	stats.AddCounts(c.calls, p.calls)
	stats.AddCounts(c.guarded, p.guarded)
	c.log.AddRecs(p.sites)
	for _, y := range p.seen {
		c.seenPreds[y] = true
	}
}

// Merge folds a fork's evidence into c (see Fold) and empties the fork.
func (c *Checker) Merge(o *Checker) { c.Fold(o.TakePartial()) }

// Derived is the evidence for one (X, Y) instance.
type Derived = stats.Instance[Key]

// Ranked returns (X, Y) instances for predicates actually seen, ordered
// by z.
func (c *Checker) Ranked() []Derived {
	ins := make([]Derived, 0, len(c.calls)*len(c.seenPreds))
	for x := range c.calls {
		for y := range c.seenPreds {
			ins = append(ins, Derived{Key: Key{x, y}, Counter: c.Counter(x, y)})
		}
	}
	return stats.Rank(ins, stats.Order[Key]{P0: c.p0, Compare: compareKeys})
}

// Counter exposes the evidence for (x, y).
func (c *Checker) Counter(x, y string) stats.Counter {
	n := c.calls[x]
	if n == 0 || !c.preds[y] {
		return stats.Counter{}
	}
	return stats.Counter{Checks: n, Errors: n - c.guarded[Key{x, y}]}
}

// Finish reports unprotected calls to actions that are usually guarded,
// ranked by z.
func (c *Checker) Finish(col *report.Collector) {
	var rows []Derived
	var queries []stats.SetKey
	for _, d := range c.Ranked() {
		if d.Reportable(stats.AnyEvidence) {
			rows = append(rows, d)
			queries = append(queries, stats.SetKey{Slot: d.Key.Action, Member: d.Key.Check})
		}
	}
	if len(rows) == 0 {
		return
	}
	sites := c.log.Sites(queries)
	for i, d := range rows {
		col.AddStats("seccheck", fmt.Sprintf("security check %s must protect %s", d.Key.Check, d.Key.Action),
			sites[i], d.Score(), d.Counter,
			fmt.Sprintf("%s called without a %s check; %d/%d call sites are guarded",
				d.Key.Action, d.Key.Check, d.Examples(), d.Checks))
	}
}
