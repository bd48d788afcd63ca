// Package freecheck implements the deallocation MUST beliefs of §4.1:
// "deallocation of a pointer p implies a belief that it was dynamically
// allocated (pre-condition) and will not be used after the deallocation
// (post-condition)." Contradictions are definite errors:
//
//   - use-after-free: a freed pointer is dereferenced or passed onward;
//   - double-free: a freed pointer is freed again.
//
// Free routines are recognized by the latent "free" naming convention
// (§5.2) with a single pointer argument.
package freecheck

import (
	"fmt"
	"strconv"
	"strings"

	"deviant/internal/cast"
	"deviant/internal/engine"
	"deviant/internal/latent"
	"deviant/internal/report"
)

// Checker is the use-after-free automaton.
type Checker struct {
	conv *latent.Conventions
}

// New returns a freecheck checker.
func New(conv *latent.Conventions) *Checker { return &Checker{conv: conv} }

// Name implements engine.Checker.
func (c *Checker) Name() string { return "free" }

// state maps slot keys to the line where they were freed.
type state struct {
	freed map[string]int
}

func (s *state) Clone() engine.State {
	ns := &state{}
	if len(s.freed) > 0 {
		ns.freed = make(map[string]int, len(s.freed))
		for k, v := range s.freed {
			ns.freed[k] = v
		}
	}
	return ns
}

func (s *state) Key() string {
	if len(s.freed) == 0 {
		return ""
	}
	return string(s.AppendKey(nil))
}

// AppendKey implements engine.AppendKeyer: the freed slots in ascending
// key order with their free line, built without allocating.
func (s *state) AppendKey(b []byte) []byte {
	for k := engine.NextKey(s.freed, ""); k != ""; k = engine.NextKey(s.freed, k) {
		b = append(b, k...)
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(s.freed[k]), 10)
		b = append(b, ';')
	}
	return b
}

// NewState implements engine.Checker. The freed map is allocated on the
// first free() call: most functions free nothing, and the engine creates
// one state per function plus one per branch clone.
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

// isFreeCall recognizes single-argument deallocators by the "free"
// naming token ("kfree", "skb_free", "free"). The broader LooksFree set
// (release/put/destroy) is deliberately excluded — those often drop a
// reference rather than deallocate, and a MUST checker cannot afford the
// coincidences.
func isFreeCall(name string) bool {
	lower := strings.ToLower(name)
	if lower == "free" {
		return true
	}
	for s := lower; ; {
		i := strings.IndexByte(s, '_')
		tok := s
		if i >= 0 {
			tok = s[:i]
		}
		if tok == "free" || tok == "kfree" || tok == "vfree" {
			return true
		}
		if i < 0 {
			break
		}
		s = s[i+1:]
	}
	return strings.HasSuffix(lower, "free") || strings.HasPrefix(lower, "free")
}

// Event implements engine.Checker.
func (c *Checker) Event(st engine.State, ev *engine.Event, ctx *engine.Ctx) {
	s := st.(*state)
	switch ev.Kind {
	case engine.EvCall:
		name := cast.CalleeName(ev.Call)
		if name == "" {
			return
		}
		if isFreeCall(name) && len(ev.Call.Args) == 1 {
			key := keyOf(ev.Call.Args[0])
			if key == "" || ev.Call.Args[0].FromMacro() {
				return
			}
			if line, dead := s.freed[key]; dead {
				ctx.Reports.AddMust("free/double-free",
					"do not free "+key+" twice", ev.Pos, report.Serious,
					span(ev.Pos.Line, line),
					fmt.Sprintf("%q was already freed at line %d", key, line))
			}
			if s.freed == nil {
				s.freed = make(map[string]int)
			}
			s.freed[key] = ev.Pos.Line
			return
		}
		// Passing a freed pointer onward is a use.
		for _, a := range ev.Call.Args {
			if key := keyOf(a); key != "" {
				if line, dead := s.freed[key]; dead {
					ctx.Reports.AddMust("free/use-after-free",
						"do not use freed pointer "+key, ev.Pos, report.Serious,
						span(ev.Pos.Line, line),
						fmt.Sprintf("%q passed to %s after being freed at line %d", key, name, line))
					delete(s.freed, key) // report once per path
				}
			}
		}
	case engine.EvDeref:
		key := keyOf(ev.Ptr)
		if key == "" {
			return
		}
		if line, dead := s.freed[key]; dead {
			ctx.Reports.AddMust("free/use-after-free",
				"do not use freed pointer "+key, ev.Pos, report.Serious,
				span(ev.Pos.Line, line),
				fmt.Sprintf("%q dereferenced after being freed at line %d", key, line))
			delete(s.freed, key)
		}
	case engine.EvAssign:
		if key := keyOf(ev.LHS); key != "" {
			delete(s.freed, key)
			// Freeing p also invalidates p->field slots; reassigning p
			// clears them too.
			for k := range s.freed {
				if strings.HasPrefix(k, key+"->") || strings.HasPrefix(k, key+".") {
					delete(s.freed, k)
				}
			}
		}
	case engine.EvDecl:
		delete(s.freed, ev.Decl.Name)
	}
}

func span(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// Branch implements engine.Checker: null checks of freed pointers are
// legitimate (freeing does not null the variable), so branches do not
// affect the freed set.
func (c *Checker) Branch(engine.State, cast.Expr, bool, *engine.Ctx) {}

// FuncEnd implements engine.Checker.
func (c *Checker) FuncEnd(engine.State, *engine.Ctx) {}

// Fork returns a per-worker view for the parallel pipeline. The checker
// accumulates nothing across functions (all its state lives in the path
// state and reports flow through the per-shard collector), so the fork is
// the checker itself.
func (c *Checker) Fork() *Checker { return c }

// Merge is a no-op; see Fork.
func (c *Checker) Merge(*Checker) {}

// Partial is a function's evidence: none, since the checker's findings
// are all reports (see Fork).
type Partial struct{}

// TakePartial returns the empty Partial.
func (c *Checker) TakePartial() Partial { return Partial{} }

// Fold is a no-op; see Partial.
func (c *Checker) Fold(Partial) {}
