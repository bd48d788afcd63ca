package main

import (
	"strings"
	"testing"

	"deviant"
	"deviant/internal/corpus"
	"deviant/internal/report"
)

// analyzed runs the library on the seed's tree and returns the tree
// and its ranked reports in wire shape.
func analyzed(t *testing.T, seed int64) (*corpus.Corpus, []report.JSONReport) {
	t.Helper()
	c := seedTree(seed)
	res, err := deviant.Analyze(c.Files, deviant.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ranked := res.Reports.Ranked()
	out := make([]report.JSONReport, len(ranked))
	for i := range ranked {
		out[i] = report.ToJSON(i+1, &ranked[i])
	}
	return c, out
}

// isolatedBug returns a seeded bug with no other seeded bug within
// six lines of it in the same file, so moving or dropping the reports
// on it cannot be absorbed by a neighbour.
func isolatedBug(t *testing.T, c *corpus.Corpus, kind corpus.BugKind) corpus.Bug {
	t.Helper()
	for _, b := range c.Bugs {
		if b.Kind != kind {
			continue
		}
		alone := true
		for _, o := range c.Bugs {
			d := o.Line - b.Line
			if o != b && o.File == b.File && d >= -6 && d <= 6 {
				alone = false
			}
		}
		if alone {
			return b
		}
	}
	t.Fatalf("no isolated %s bug", kind)
	return corpus.Bug{}
}

func TestOraclePassesSeededTree(t *testing.T) {
	// 1009 was not among the seeds used while writing the oracle.
	c, reps := analyzed(t, 1009)
	v := judge(c.Bugs, &output{reports: reps})
	if v.failed() {
		t.Fatalf("correct output judged failed: %s", v.reason)
	}
	if v.found != v.seeded || v.seeded != len(c.Bugs) {
		t.Fatalf("found %d of %d, want all %d", v.found, v.seeded, len(c.Bugs))
	}
	if v.topTrue == 0 || v.topTrue > v.seeded {
		t.Fatalf("top-k true positives %d out of range (k=%d)", v.topTrue, v.seeded)
	}
}

func TestOracleFlagsDroppedReport(t *testing.T) {
	c, reps := analyzed(t, 3)
	b := isolatedBug(t, c, corpus.CheckThenUse)
	var kept []report.JSONReport
	for _, r := range reps {
		if !near(b, r) {
			kept = append(kept, r)
		}
	}
	if len(kept) == len(reps) {
		t.Fatal("no report on the chosen bug")
	}
	v := judge(c.Bugs, &output{reports: kept})
	if !v.failed() || !strings.Contains(v.reason, "missed 1 ") {
		t.Fatalf("dropped report not flagged: %+v", v)
	}
}

func TestOracleFlagsMovedReport(t *testing.T) {
	c, reps := analyzed(t, 3)
	b := isolatedBug(t, c, corpus.UserPtrDeref)
	moved := append([]report.JSONReport(nil), reps...)
	n := 0
	for i := range moved {
		if near(b, moved[i]) {
			moved[i].Line = b.Line + lineTolerance + 1
			n++
		}
	}
	if n == 0 {
		t.Fatal("no report on the chosen bug")
	}
	if v := judge(c.Bugs, &output{reports: moved}); !v.failed() {
		t.Fatalf("report moved %d lines not flagged", lineTolerance+1)
	}
}

func TestOracleFlagsDegradedResult(t *testing.T) {
	c, reps := analyzed(t, 3)
	for name, out := range map[string]output{
		"degraded":     {reports: reps, degraded: true},
		"quarantined":  {reports: reps, quarantined: 1},
		"parse errors": {reports: reps, parseErrors: 1},
	} {
		if v := judge(c.Bugs, &out); !v.failed() {
			t.Errorf("%s result not flagged", name)
		}
	}
}

func TestCrossKindMatching(t *testing.T) {
	bug := corpus.Bug{Kind: corpus.WrongErrCheck, File: "a.c", Line: 10}
	// A reverse report may land on an IS_ERR bug; a null report may not.
	if got := topTruePositives([]corpus.Bug{bug}, []report.JSONReport{{Checker: "reverse", File: "a.c", Line: 11}}, 1); got != 1 {
		t.Errorf("reverse on iserr bug: %d true positives, want 1", got)
	}
	if got := topTruePositives([]corpus.Bug{bug}, []report.JSONReport{{Checker: "null/check-then-use", File: "a.c", Line: 10}}, 1); got != 0 {
		t.Errorf("null on iserr bug: %d true positives, want 0", got)
	}
	// Recall credits a bug only to reports of its own kind.
	if got := foundOfKind([]corpus.Bug{bug}, []report.JSONReport{{Checker: "reverse", File: "a.c", Line: 10}}, corpus.WrongErrCheck); got != 0 {
		t.Errorf("iserr bug found by reverse alone: %d, want 0", got)
	}
}
