// Package report collects, deduplicates and ranks checker error messages.
//
// Ranking follows §3.5: "our ranking criteria places local errors over
// global ones, errors that span few source lines or conditionals over ones
// with many, serious errors over minor ones" — and, for statistical
// checkers, §5's rule that the z statistic ranks error messages, not
// beliefs.
package report

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"deviant/internal/ctoken"
	"deviant/internal/stats"
)

// Severity classifies how bad a violated belief is.
type Severity int

// Severities, most serious first.
const (
	Serious Severity = iota // crashes, security holes
	Minor                   // redundancy, confusion indicators
)

// String renders the severity.
func (s Severity) String() string {
	if s == Serious {
		return "serious"
	}
	return "minor"
}

// Report is one error message from a checker.
type Report struct {
	Checker  string      // checker name, e.g. "null/check-then-use"
	Rule     string      // instantiated rule, e.g. "do not dereference null pointer card"
	Pos      ctoken.Pos  // error location
	Message  string      // human-readable diagnosis
	Severity Severity    // serious or minor
	Local    bool        // confined to one function / few lines
	Span     int         // source lines between belief and contradiction
	Z        float64     // rank statistic for MAY-belief errors (NaN for MUST)
	Counter  CounterInfo // evidence for statistical errors

	// Fingerprint is the report's stable identity across re-analysis
	// (see Fingerprinter), stamped after collection by SetFingerprints.
	// Not part of Key(): deduplication stays positional within one run.
	Fingerprint string
}

// CounterInfo carries the statistical evidence behind a MAY-belief error.
type CounterInfo struct {
	Checks   int
	Examples int
}

// Statistical reports whether the report came from a statistical checker
// (carries a meaningful z value).
func (r *Report) Statistical() bool { return !math.IsNaN(r.Z) }

// Key identifies a report for deduplication. Path-sensitive traversal can
// reach the same error along many (block, state) pairs; the user sees it
// once.
func (r *Report) Key() string {
	return r.Checker + "|" + r.Pos.String() + "|" + r.Rule
}

// String renders the report as a compiler-style diagnostic.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: [%s] %s", r.Pos, r.Checker, r.Message)
	if r.Statistical() {
		fmt.Fprintf(&sb, " (z=%.2f, %d/%d)", r.Z, r.Counter.Examples, r.Counter.Checks)
	}
	return sb.String()
}

// Collector accumulates deduplicated reports. Insertion order is
// preserved so that ranking ties resolve identically from run to run, and
// so that merging per-worker collectors in shard order reproduces the
// serial collector exactly.
type Collector struct {
	byKey map[string]*Report
	keys  []string // insertion order of first occurrence
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{byKey: make(map[string]*Report)}
}

// Reset clears the collector for reuse, keeping allocated capacity.
// Reports previously merged out of it are value copies and stay valid.
func (c *Collector) Reset() {
	clear(c.byKey)
	c.keys = c.keys[:0]
}

// Add records r unless an identical report was already seen. MUST-belief
// reports should have Z = NaN (use AddMust/AddStat helpers to get this
// right).
func (c *Collector) Add(r Report) {
	k := r.Key()
	if old, ok := c.byKey[k]; ok {
		// Keep the higher-z duplicate (counters can improve as evidence
		// accumulates during a run).
		if r.Statistical() && old.Statistical() && r.Z > old.Z {
			c.byKey[k] = &r
		}
		return
	}
	c.byKey[k] = &r
	c.keys = append(c.keys, k)
}

// Merge folds another collector into c, replaying o's reports in their
// original insertion order. Folding per-shard collectors back in shard
// order therefore yields the same contents — including which duplicate
// survived — as collecting serially.
func (c *Collector) Merge(o *Collector) {
	for _, k := range o.keys {
		c.Add(*o.byKey[k])
	}
}

// Reports returns the collected reports in insertion order as an
// exact-size copy, nil when there are none. Adding them in order to
// another collector has the effect of Merge.
func (c *Collector) Reports() []Report {
	if len(c.keys) == 0 {
		return nil
	}
	return c.all()
}

// all returns the reports in insertion order.
func (c *Collector) all() []Report {
	out := make([]Report, 0, len(c.keys))
	for _, k := range c.keys {
		out = append(out, *c.byKey[k])
	}
	return out
}

// AddMust records an internal-consistency (MUST belief) error.
func (c *Collector) AddMust(checker, rule string, pos ctoken.Pos, sev Severity, span int, msg string) {
	c.Add(Report{
		Checker:  checker,
		Rule:     rule,
		Pos:      pos,
		Message:  msg,
		Severity: sev,
		Local:    span >= 0 && span <= 10,
		Span:     span,
		Z:        math.NaN(),
	})
}

// AddStat records a statistical (MAY belief) error with its evidence.
func (c *Collector) AddStat(checker, rule string, pos ctoken.Pos, z float64, checks, examples int, msg string) {
	c.Add(Report{
		Checker:  checker,
		Rule:     rule,
		Pos:      pos,
		Message:  msg,
		Severity: Serious,
		Local:    true,
		Z:        z,
		Counter:  CounterInfo{Checks: checks, Examples: examples},
	})
}

// AddStats records one statistical report per counter-example site of a
// rule instance — the one report loop of the statistical checkers. Every
// site carries the instance's score and evidence.
func (c *Collector) AddStats(checker, rule string, sites []ctoken.Pos, score float64, ev stats.Counter, msg string) {
	for _, pos := range sites {
		c.AddStat(checker, rule, pos, score, ev.Checks, ev.Examples(), msg)
	}
}

// Len returns the number of distinct reports.
func (c *Collector) Len() int { return len(c.byKey) }

// Ranked returns all reports ordered for inspection: statistical reports
// by decreasing z; MUST reports by severity, locality, span; ties broken
// by position. Statistical and MUST reports are ranked within their own
// checkers' namespaces but interleave stably (MUST contradictions are
// definite errors, so they sort before statistical ones of the same
// checker prefix ordering).
func (c *Collector) Ranked() []Report {
	out := c.all()
	sort.SliceStable(out, func(i, j int) bool { return less(&out[i], &out[j]) })
	return out
}

// RankedBy ranks like Ranked but adds boost(r) (in z units) to every
// statistical report's score. MUST reports are unaffected —
// contradictions need no rank help. This is the hook for the paper's
// ranking augmentations: code trustworthiness (§5, see RankedWithTrust)
// and profile-driven ranking (§2's future work: a boost derived from
// execution counts floats bugs in hot code to the top).
func (c *Collector) RankedBy(boost func(*Report) float64) []Report {
	out := c.all()
	adj := func(r *Report) float64 {
		if !r.Statistical() {
			return 0
		}
		return r.Z + boost(r)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		am, bm := !a.Statistical(), !b.Statistical()
		if am != bm {
			return am
		}
		if am {
			return less(a, b)
		}
		za, zb := adj(a), adj(b)
		if za != zb {
			return za > zb
		}
		return tieLess(a, b)
	})
	return out
}

// RankedWithTrust ranks like Ranked but augments statistical scores with
// file trustworthiness (§5): a violation in a file that already holds
// definite errors gets tm's suspicion boost, nudging near-ties toward the
// files where confusion has been demonstrated.
func (c *Collector) RankedWithTrust(tm *stats.TrustModel) []Report {
	return c.RankedBy(func(r *Report) float64 { return tm.SuspicionBoost(r.Pos.File) })
}

// TrustFromMustErrors builds a TrustModel from the collector's definite
// (MUST-belief) reports: each one marks its file as less trustworthy.
func (c *Collector) TrustFromMustErrors() *stats.TrustModel {
	tm := stats.NewTrustModel()
	for _, k := range c.keys {
		if r := c.byKey[k]; !r.Statistical() {
			tm.Observe(r.Pos.File)
		}
	}
	return tm
}

// JSONReport is the machine-readable shape of one ranked report, shared
// by the CLI's -json mode and the deviantd service responses so scripts
// see one schema everywhere.
type JSONReport struct {
	Rank     int     `json:"rank"`
	Checker  string  `json:"checker"`
	File     string  `json:"file"`
	Line     int     `json:"line"`
	Col      int     `json:"col"`
	Rule     string  `json:"rule"`
	Message  string  `json:"message"`
	Definite bool    `json:"definite"` // MUST-belief contradiction
	Z        float64 `json:"z,omitempty"`
	Checks   int     `json:"checks,omitempty"`
	Examples int     `json:"examples,omitempty"`
	// Fingerprint is appended last so pre-fingerprint consumers keep
	// their field positions; it is omitted when no fingerprinter ran.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// ToJSON converts one ranked report (1-based rank) to its wire shape.
// Statistical evidence fields are populated only for MAY-belief errors;
// MUST contradictions are marked definite and carry no z.
func ToJSON(rank int, r *Report) JSONReport {
	jr := JSONReport{
		Rank: rank, Checker: r.Checker,
		File: r.Pos.File, Line: r.Pos.Line, Col: r.Pos.Col,
		Rule: r.Rule, Message: r.Message,
		Definite:    !r.Statistical(),
		Fingerprint: r.Fingerprint,
	}
	if r.Statistical() {
		jr.Z = r.Z
		jr.Checks = r.Counter.Checks
		jr.Examples = r.Counter.Examples
	}
	return jr
}

// ByChecker returns the ranked reports produced by one checker.
func (c *Collector) ByChecker(name string) []Report {
	var out []Report
	for _, r := range c.Ranked() {
		if r.Checker == name || strings.HasPrefix(r.Checker, name+"/") {
			out = append(out, r)
		}
	}
	return out
}

func less(a, b *Report) bool {
	// Definite (MUST) errors ahead of statistical ones.
	am, bm := !a.Statistical(), !b.Statistical()
	if am != bm {
		return am
	}
	if am {
		if a.Severity != b.Severity {
			return a.Severity < b.Severity
		}
		if a.Local != b.Local {
			return a.Local
		}
		if a.Span != b.Span {
			return a.Span < b.Span
		}
		return tieLess(a, b)
	}
	if a.Z != b.Z {
		return a.Z > b.Z
	}
	return tieLess(a, b)
}

// tieLess is the final total-order tiebreak: position, then checker, then
// rule. Distinct reports can share a position (different rules at one
// site), so ordering must not stop at posLess or the ranking would depend
// on map iteration order.
func tieLess(a, b *Report) bool {
	if a.Pos != b.Pos {
		return posLess(a.Pos, b.Pos)
	}
	if a.Checker != b.Checker {
		return a.Checker < b.Checker
	}
	return a.Rule < b.Rule
}

func posLess(a, b ctoken.Pos) bool {
	if a.File != b.File {
		return a.File < b.File
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}
