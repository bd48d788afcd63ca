package main

import (
	"fmt"
	"slices"
	"strings"

	"deviant/internal/corpus"
	"deviant/internal/report"
)

// The oracle judges one operation's output against the generator's
// seeded ground truth (corpus.Corpus.Bugs), never against a recorded
// dump of the analyzer's own output. Matching is the one
// deviant_test.go uses: same file, within lineTolerance lines, each bug
// absorbing at most one report, with the cross-kind table below.

const lineTolerance = 2

// bugKinds are the twelve seeded kinds; each is also the name (or
// name prefix before "/") of the checker that should report it.
var bugKinds = []corpus.BugKind{
	corpus.CheckThenUse, corpus.UseThenCheck, corpus.RedundantCheck,
	corpus.UserPtrDeref, corpus.WrongErrCheck, corpus.UncheckedAlloc,
	corpus.UnlockedAccess, corpus.MissingUnlock, corpus.IntrEnabled,
	corpus.SecUnchecked, corpus.MissingRevert, corpus.UseAfterFree,
}

// crossKinds lists the extra bug kinds a checker's reports may land
// on: reverse also finds leaked locks and broken IS_ERR pairings, and
// pairing also rediscovers IS_ERR and interrupt bugs.
var crossKinds = map[corpus.BugKind][]corpus.BugKind{
	corpus.MissingRevert: {corpus.MissingRevert, corpus.MissingUnlock, corpus.WrongErrCheck},
	corpus.MissingUnlock: {corpus.MissingUnlock, corpus.WrongErrCheck, corpus.IntrEnabled},
}

func matchKinds(k corpus.BugKind) []corpus.BugKind {
	if m := crossKinds[k]; m != nil {
		return m
	}
	return []corpus.BugKind{k}
}

// kindOf returns the bug kind a checker name reports, or "" for
// checkers no seeded bug belongs to.
func kindOf(checker string) corpus.BugKind {
	for _, k := range bugKinds {
		if checker == string(k) || strings.HasPrefix(checker, string(k)+"/") {
			return k
		}
	}
	return ""
}

// output is what one operation returned, in the wire shape every entry
// point shares.
type output struct {
	reports     []report.JSONReport // in rank order
	parseErrors int
	degraded    bool
	quarantined int
}

// verdict is the oracle's judgement of one operation.
type verdict struct {
	seeded  int // seeded bugs in the tree
	found   int // seeded bugs matched by a report of their own kind
	topTrue int // true positives among the top seeded ranked reports
	reason  string
}

func (v verdict) failed() bool { return v.reason != "" }

// judge applies the per-operation failure rules that depend on the
// output: any parse error, a degraded or quarantined result, or any
// seeded bug missed. Transport failures (non-zero exit, non-200,
// timeout) are judged by the caller before an output exists.
func judge(bugs []corpus.Bug, out *output) verdict {
	v := verdict{seeded: len(bugs)}
	for _, k := range bugKinds {
		v.found += foundOfKind(bugs, out.reports, k)
	}
	v.topTrue = topTruePositives(bugs, out.reports, len(bugs))
	switch {
	case out.parseErrors > 0:
		v.reason = fmt.Sprintf("%d parse errors", out.parseErrors)
	case out.degraded || out.quarantined > 0:
		v.reason = fmt.Sprintf("degraded result (%d quarantined)", out.quarantined)
	case v.found < v.seeded:
		v.reason = fmt.Sprintf("missed %d of %d seeded bugs", v.seeded-v.found, v.seeded)
	}
	return v
}

// foundOfKind mirrors corpus.ScoreReportsKinds: kind k's reports, in
// rank order, each claim the first unclaimed bug of k's match kinds
// they land on; it returns how many bugs of kind k itself were claimed.
func foundOfKind(bugs []corpus.Bug, reports []report.JSONReport, k corpus.BugKind) int {
	var cand []corpus.Bug
	for _, mk := range matchKinds(k) {
		for _, b := range bugs {
			if b.Kind == mk {
				cand = append(cand, b)
			}
		}
	}
	used := make([]bool, len(cand))
	for _, r := range reports {
		if kindOf(r.Checker) != k {
			continue
		}
		for i, b := range cand {
			if !used[i] && near(b, r) {
				used[i] = true
				break
			}
		}
	}
	n := 0
	for i, u := range used {
		if u && cand[i].Kind == k {
			n++
		}
	}
	return n
}

// topTruePositives counts the reports among the first k ranked ones
// that land on a seeded bug their checker may report, each bug
// absorbing at most one report: precision@k is this over k.
func topTruePositives(bugs []corpus.Bug, reports []report.JSONReport, k int) int {
	used := make([]bool, len(bugs))
	tp := 0
	for _, r := range reports[:min(k, len(reports))] {
		rk := kindOf(r.Checker)
		if rk == "" {
			continue
		}
		for i, b := range bugs {
			if !used[i] && near(b, r) && slices.Contains(matchKinds(rk), b.Kind) {
				used[i] = true
				tp++
				break
			}
		}
	}
	return tp
}

func near(b corpus.Bug, r report.JSONReport) bool {
	if b.File != r.File {
		return false
	}
	d := r.Line - b.Line
	if d < 0 {
		d = -d
	}
	return d <= lineTolerance
}

// fingerprints lists the reports' fingerprints in rank order.
func fingerprints(reports []report.JSONReport) []string {
	out := make([]string, len(reports))
	for i, r := range reports {
		out[i] = r.Fingerprint
	}
	return out
}

// tally accumulates verdicts over a run.
type tally struct {
	attempted, failed      int
	seeded, found, topTrue int
	firstFailure           string
}

// add records one operation: err is a transport failure, v the
// oracle's verdict when there was an output.
func (t *tally) add(v verdict, err error) bool {
	t.attempted++
	reason := v.reason
	if err != nil {
		reason = err.Error()
	}
	if reason != "" {
		t.failed++
		if t.firstFailure == "" {
			t.firstFailure = reason
		}
	}
	t.seeded += v.seeded
	t.found += v.found
	t.topTrue += v.topTrue
	return reason == ""
}

func (t *tally) recall() float64 { return ratio(float64(t.found), float64(t.seeded)) }

func (t *tally) precisionAtK() float64 { return ratio(float64(t.topTrue), float64(t.seeded)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
