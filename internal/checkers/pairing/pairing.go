// Package pairing is the path template: it records each execution path's
// function-call sequence and derives rules over ordered call pairs
// (a, b) observed together on some path. Per the paper's counting, the
// population is paths containing a and the examples are paths where
// some later b follows a's first call. Candidates rank by the z
// statistic, with a latent-specification boost for names matching
// open/close conventions (lock/unlock, request/release, cli/sti, ...),
// and violations — paths where no b follows a — are reported ranked by
// the pair's score, which is how the paper keeps noise from
// coincidental couplings inspectable.
//
// New instantiates "<a> must be paired with <b>" (Section 9 / Table 2)
// over every path. Package reverse instantiates "does <b> reverse <a>?"
// with the same walker, derivation and report loop over error paths
// only (see Template).
package pairing

import (
	"cmp"
	"fmt"

	"deviant/internal/cast"
	"deviant/internal/cfg"
	"deviant/internal/ctoken"
	"deviant/internal/latent"
	"deviant/internal/report"
	"deviant/internal/stats"
)

// Limits bound path enumeration per function.
type Limits struct {
	MaxPaths int // paths enumerated per function
	MaxCalls int // calls recorded per path
}

// DefaultLimits are generous enough for kernel-style functions.
func DefaultLimits() Limits { return Limits{MaxPaths: 128, MaxCalls: 64} }

// Template says which paths a Checker records and how it words its
// reports.
type Template struct {
	Name string // checker name on reports
	// ErrorReturn, when set, restricts the template to error paths:
	// return statements classify their path by their value with it and
	// are not scanned for calls, and only paths that reach an error
	// return are recorded.
	ErrorReturn func(value cast.Expr) bool
	// Ignore lists calls excluded from the sequences (diagnostic
	// printers pair with nothing).
	Ignore map[string]bool
	// Rule and Message are format strings over (a, b) and (a, b,
	// examples, checks).
	Rule, Message string
}

// paired is the template "<a> must be paired with <b>" over every path.
var paired = Template{
	Name:    "pairing",
	Ignore:  map[string]bool{"printk": true, "printf": true, "sprintf": true},
	Rule:    "%s must be paired with %s",
	Message: "call to %s is not followed by %s on this path (paired %d/%d elsewhere)",
}

type callRef struct {
	name string
	pos  ctoken.Pos
}

// Checker accumulates call-sequence paths across a program, then derives
// and checks its template's pairs.
type Checker struct {
	conv   *latent.Conventions
	limits Limits
	tmpl   *Template
	// paths are the recorded call sequences. Each function's paths are
	// views into one exact-size array of its calls, never written after
	// AddFunction returns, so Fold shares them instead of copying.
	paths [][]callRef

	// Scratch reused across AddFunction calls: the current path's calls,
	// and the function's recorded calls with each path's end offset.
	cur  []callRef
	buf  []callRef
	ends []int
}

// New returns an empty pairing deriver.
func New(conv *latent.Conventions, limits Limits) *Checker {
	return NewTemplate(conv, limits, &paired)
}

// NewTemplate returns an empty deriver for tmpl.
func NewTemplate(conv *latent.Conventions, limits Limits, tmpl *Template) *Checker {
	return &Checker{conv: conv, limits: limits, tmpl: tmpl}
}

// AddFunction enumerates g's paths and records their call sequences.
// Loops are unrolled once — each block may repeat once per path, so a
// one-iteration trip exposes the body's calls, and paths trapped in a
// cycle are abandoned rather than recorded as truncated (a truncated
// record would claim the path "never reached the unlock").
func (c *Checker) AddFunction(g *cfg.Graph) {
	c.buf, c.ends = c.buf[:0], c.ends[:0]
	// Deferred, so the paths recorded before a panic are kept too.
	defer c.keepPaths()
	cur := c.cur[:0]
	paths := 0
	var walk func(b *cfg.Block, onPath map[int]int, isErr bool)
	walk = func(b *cfg.Block, onPath map[int]int, isErr bool) {
		if b == nil || paths >= c.limits.MaxPaths {
			return
		}
		if onPath[b.ID] >= 2 {
			return // abandoned: cycle with no way forward on this trace
		}
		onPath[b.ID]++
		defer func() { onPath[b.ID]-- }()

		mark := len(cur)
		crashed := false
		for _, n := range b.Nodes {
			if ret, ok := n.(*cast.ReturnStmt); ok && c.tmpl.ErrorReturn != nil {
				isErr = isErr || c.tmpl.ErrorReturn(ret.X)
				continue
			}
			cur = c.collectCalls(n, cur)
			if c.callsCrash(n) {
				crashed = true
			}
		}
		if b.Cond != nil {
			cur = c.collectCalls(b.Cond, cur)
		}
		if crashed {
			// §5.2: panic/BUG paths never execute past the crash; they
			// must not count as broken pairings.
			cur = cur[:mark]
			return
		}
		if len(b.Succs) == 0 {
			if len(cur) > 0 && (isErr || c.tmpl.ErrorReturn == nil) {
				c.buf = append(c.buf, cur...)
				c.ends = append(c.ends, len(c.buf))
			}
			paths++
		} else {
			for _, e := range b.Succs {
				walk(e.To, onPath, isErr)
			}
		}
		cur = cur[:mark]
	}
	walk(g.Entry, map[int]int{}, false)
	c.cur = cur
}

// keepPaths moves the paths AddFunction recorded in the scratch into one
// exact-size array of the function's calls, appending a view per path.
func (c *Checker) keepPaths() {
	if len(c.ends) == 0 {
		return
	}
	calls := make([]callRef, len(c.buf))
	copy(calls, c.buf)
	lo := 0
	for _, hi := range c.ends {
		c.paths = append(c.paths, calls[lo:hi:hi])
		lo = hi
	}
}

func (c *Checker) collectCalls(n cast.Node, cur []callRef) []callRef {
	cast.Inspect(n, func(m cast.Node) bool {
		if len(cur) >= c.limits.MaxCalls {
			return false
		}
		if call, ok := m.(*cast.CallExpr); ok {
			name := cast.CalleeName(call)
			if name != "" && !c.tmpl.Ignore[name] && !c.conv.IsCrashRoutine(name) {
				cur = append(cur, callRef{name: name, pos: call.Lparen})
			}
		}
		return true
	})
	return cur
}

// callsCrash reports whether node n contains a call to a never-returns
// routine.
func (c *Checker) callsCrash(n cast.Node) bool {
	found := false
	cast.Inspect(n, func(m cast.Node) bool {
		if call, ok := m.(*cast.CallExpr); ok {
			if name := cast.CalleeName(call); name != "" && c.conv.IsCrashRoutine(name) {
				found = true
			}
		}
		return !found
	})
	return found
}

// Fork returns an empty deriver sharing c's configuration (conventions,
// limits and template are read-only), for one worker's shard of
// functions.
func (c *Checker) Fork() *Checker { return NewTemplate(c.conv, c.limits, c.tmpl) }

// Partial is the call-sequence paths a run of the deriver over some
// functions recorded. Its paths are read-only: folds share them.
type Partial struct {
	paths [][]callRef
}

// TakePartial moves the paths c recorded since the last take into an
// exact-size Partial (empty when there are none) and resets c's path
// list.
func (c *Checker) TakePartial() Partial {
	if len(c.paths) == 0 {
		return Partial{}
	}
	p := Partial{paths: make([][]callRef, len(c.paths))}
	copy(p.paths, c.paths)
	clear(c.paths)
	c.paths = c.paths[:0]
	return p
}

// Fold appends p's paths to c; neither side ever writes a recorded path,
// so p stays unmodified. Folding per-function partials in function order
// reproduces the serial path list exactly, so Derive and Finish see the
// same evidence in the same order.
func (c *Checker) Fold(p Partial) { c.paths = append(c.paths, p.paths...) }

// Merge appends a fork's recorded paths to c (see Fold) and empties the
// fork.
func (c *Checker) Merge(o *Checker) { c.Fold(o.TakePartial()) }

// Key is one ordered call pair (a, b).
type Key struct {
	A, B string
}

// compareKeys orders pairs by a, then b.
func compareKeys(a, b Key) int { return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B)) }

// Pair is one derived slot-instance combination of the template.
type Pair = stats.Instance[Key]

// firstCalls maps each callee on path to the index of its first call,
// reusing first.
func firstCalls(path []callRef, first map[string]int) {
	clear(first)
	for i, cr := range path {
		if _, ok := first[cr.name]; !ok {
			first[cr.name] = i
		}
	}
}

// follows reports whether b is called after index i on path.
func follows(path []callRef, i int, b string) bool {
	for _, cr := range path[i+1:] {
		if cr.name == b {
			return true
		}
	}
	return false
}

// Derive computes all candidate pairs with their evidence, ranked by
// score (descending).
func (c *Checker) Derive(p0 float64) []Pair {
	// Candidate universe: (a, b) that were actually paired on >= 1 path.
	candidates := make(map[string]map[string]bool)
	first := map[string]int{} // reused (cleared) across paths
	for _, path := range c.paths {
		firstCalls(path, first)
		for a, ai := range first {
			for _, cr := range path[ai+1:] {
				if cr.name == a {
					continue
				}
				if candidates[a] == nil {
					candidates[a] = make(map[string]bool)
				}
				candidates[a][cr.name] = true
			}
		}
	}

	// Count: population = paths with a; example = b follows the first a.
	var ev stats.Evidence[Key]
	for _, path := range c.paths {
		firstCalls(path, first)
		for a, ai := range first {
			for b := range candidates[a] {
				ev.Count(Key{a, b}, !follows(path, ai, b))
			}
		}
	}
	return ev.Rank(stats.Order[Key]{
		P0:      p0,
		Boost:   func(k Key) float64 { return c.conv.PairBoost(k.A, k.B) },
		Compare: compareKeys,
	})
}

// Finish derives pairs and reports violations of every pair the floor
// admits: at least minExamples paired paths, at least one violation, and
// a ranking score (z plus latent boost) of at least minScore. The score
// floor is what keeps coincidental couplings out of the report stream —
// they remain visible in the Derive table, ranked at the bottom. Every
// unpaired first call of a is reported, uncapped.
func (c *Checker) Finish(col *report.Collector, p0 float64, minExamples int, minScore float64) []Pair {
	pairs := c.Derive(p0)
	floor := stats.Floor{MinExamples: minExamples, MinScore: minScore}
	for _, p := range pairs {
		if !p.Reportable(floor) {
			continue
		}
		var sites []ctoken.Pos
		for _, path := range c.paths {
			for i, cr := range path {
				if cr.name == p.Key.A {
					if !follows(path, i, p.Key.B) {
						sites = append(sites, cr.pos)
					}
					break // the population counts a path's first call of a
				}
			}
		}
		col.AddStats(c.tmpl.Name, fmt.Sprintf(c.tmpl.Rule, p.Key.A, p.Key.B), sites, p.Score(), p.Counter,
			fmt.Sprintf(c.tmpl.Message, p.Key.A, p.Key.B, p.Examples(), p.Checks))
	}
	return pairs
}

// PathCount returns the number of recorded paths (for tests and the
// scalability experiment).
func (c *Checker) PathCount() int { return len(c.paths) }
