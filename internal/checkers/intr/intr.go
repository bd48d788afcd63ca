// Package intr derives the rule template "must <f> be called with
// interrupts disabled?" (Table 2). The path state is the interrupt flag
// driven by cli/sti-style calls; every other call is counted against the
// template, and calls made with interrupts enabled are the error
// candidates, ranked by z. The inverse ranking ("must be called with
// interrupts enabled" — e.g. routines that can sleep) is exposed as well.
package intr

import (
	"fmt"
	"strings"

	"deviant/internal/cast"
	"deviant/internal/engine"
	"deviant/internal/latent"
	"deviant/internal/report"
	"deviant/internal/stats"
)

// Checker accumulates interrupt-context evidence across a program.
type Checker struct {
	conv *latent.Conventions
	p0   float64
	// Key: callee; example: called with interrupts disabled;
	// counter-example: called with them enabled.
	ev stats.Evidence[string]
}

// New returns an empty interrupt-discipline checker.
func New(conv *latent.Conventions) *Checker {
	return &Checker{conv: conv, p0: stats.DefaultP0}
}

// Name implements engine.Checker.
func (c *Checker) Name() string { return "intr" }

// SetP0 overrides the expected example probability used for z ranking
// (deviant's -p0 flag; defaults to stats.DefaultP0).
func (c *Checker) SetP0(p0 float64) { c.p0 = p0 }

type state struct {
	disabled bool
}

func (s *state) Clone() engine.State { return &state{disabled: s.disabled} }

func (s *state) Key() string {
	if s.disabled {
		return "d"
	}
	return "e"
}

// NewState implements engine.Checker. Like the lock checker, beliefs
// propagate backward: a function whose first interrupt event is an enable
// (sti/restore_flags) believes interrupts were disabled at its entry.
func (c *Checker) NewState(fn *cast.FuncDecl) engine.State {
	st := &state{}
	done := false
	cast.Inspect(fn.Body, func(n cast.Node) bool {
		if done {
			return false
		}
		call, ok := n.(*cast.CallExpr)
		if !ok {
			return true
		}
		name := cast.CalleeName(call)
		switch {
		case c.conv.IntrDisable[name]:
			done = true
		case c.conv.IntrEnable[name]:
			st.disabled = true
			done = true
		}
		return true
	})
	return st
}

// Event implements engine.Checker.
func (c *Checker) Event(st engine.State, ev *engine.Event, ctx *engine.Ctx) {
	if ev.Kind != engine.EvCall {
		return
	}
	s := st.(*state)
	name := cast.CalleeName(ev.Call)
	if name == "" {
		return
	}
	switch {
	case c.conv.IntrDisable[name]:
		s.disabled = true
	case c.conv.IntrEnable[name]:
		s.disabled = false
	default:
		c.ev.Check(name, !s.disabled, ev.Pos)
	}
}

// Branch implements engine.Checker.
func (c *Checker) Branch(engine.State, cast.Expr, bool, *engine.Ctx) {}

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
// stats.Evidence.AddItems).
func (c *Checker) Fold(p Partial) { c.ev.AddItems(p.ev) }

// Merge folds a fork's evidence into c (see Fold) and empties the fork.
func (c *Checker) Merge(o *Checker) { c.Fold(o.TakePartial()) }

// Derived is one routine's interrupt-context evidence: Checks = all
// calls, Errors = calls with interrupts enabled.
type Derived = stats.Instance[string]

// Ranked orders routines by how strongly the code believes they need
// interrupts disabled.
func (c *Checker) Ranked() []Derived {
	return c.ev.Rank(stats.Order[string]{P0: c.p0, Compare: strings.Compare})
}

// InverseRanked orders routines by how strongly the code believes they
// must be called with interrupts enabled.
func (c *Checker) InverseRanked() []Derived {
	return c.ev.Rank(stats.Order[string]{P0: c.p0, Inverse: true, Compare: strings.Compare})
}

// Counter exposes one routine's evidence.
func (c *Checker) Counter(fn string) stats.Counter { return c.ev.Counter(fn) }

// Finish reports enabled-context calls to routines usually called with
// interrupts disabled, ranked by z. Routines with no disabled-context
// examples are coincidences and stay silent.
func (c *Checker) Finish(col *report.Collector) {
	for _, d := range c.Ranked() {
		if d.Reportable(stats.AnyEvidence) {
			col.AddStats("intr", fmt.Sprintf("%s must be called with interrupts disabled", d.Key),
				c.ev.Sites(d.Key), d.Score(), d.Counter,
				fmt.Sprintf("%s called with interrupts enabled; %d/%d call sites disable them",
					d.Key, d.Examples(), d.Checks))
		}
	}
}
