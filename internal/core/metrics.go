package core

import (
	"strings"

	"deviant/internal/obs"
)

// Metric family names shared by the CLI's -stats table and deviantd's
// /metrics endpoint, so the same run reads identically in both.
const (
	MetricStageSeconds    = "deviant_stage_seconds_total"
	MetricCheckerSeconds  = "deviant_checker_seconds_total"
	MetricDeriveSeconds   = "deviant_derive_seconds_total"
	MetricCheckerReports  = "deviant_checker_reports_total"
	MetricCheckerVisits   = "deviant_checker_visits_total"
	MetricCheckerMemoHits = "deviant_checker_memo_hits_total"
	MetricReportZ         = "deviant_report_z"
	MetricTokenCacheHits  = "deviant_token_cache_hits_total"
	MetricTokenCacheMiss  = "deviant_token_cache_misses_total"
	MetricSnapshotUnits   = "deviant_snapshot_units_total"
	MetricSnapshotGraphs  = "deviant_snapshot_graphs_total"
	MetricSnapshotParts   = "deviant_snapshot_partials_total"
	MetricFunctions       = "deviant_functions_analyzed_total"
	MetricLines           = "deviant_lines_analyzed_total"
	MetricRuns            = "deviant_runs_total"
	MetricQuarantined     = "deviant_quarantined_units_total"
	MetricPanics          = "deviant_recovered_panics_total"
	MetricDegradedRuns    = "deviant_degraded_runs_total"
)

// CheckerBase maps a report's checker name onto its top-level checker:
// "null/check-then-use" counts toward "null". Metric labels use the base
// name so one family row lines up with Timing.Checkers and EngineStats.
func CheckerBase(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// RecordMetrics folds this run's statistics into reg: per-stage and
// per-checker durations, per-checker report counts and z-score
// distributions, engine traversal effort, token-cache and snapshot
// reuse. Counters accumulate across runs, so a long-lived registry (the
// daemon's) sees service-lifetime totals while a fresh one (the CLI's)
// sees exactly one run. A nil registry is a no-op, keeping the library
// path instrumentation-free.
func (r *Result) RecordMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter(MetricRuns, "Analysis runs recorded.").Inc()
	stages := []struct {
		name string
		sec  float64
	}{
		{"frontend", r.Timing.Frontend.Seconds()},
		{"preprocess", r.Timing.Preprocess.Seconds()},
		{"parse", r.Timing.Parse.Seconds()},
		{"semantic", r.Timing.Semantic.Seconds()},
		{"cfg", r.Timing.CFG.Seconds()},
		{"fingerprint", r.Timing.Fingerprint.Seconds()},
		{"total", r.Timing.Total.Seconds()},
	}
	for _, s := range stages {
		reg.Counter(MetricStageSeconds,
			"Wall-clock seconds per pipeline stage (preprocess/parse summed over units).",
			obs.L("stage", s.name)).Add(s.sec)
	}
	for name, d := range r.Timing.Checkers {
		reg.Counter(MetricCheckerSeconds, "Wall-clock seconds per checker traversal.",
			obs.L("checker", name)).Add(d.Seconds())
		// Create the reports row eagerly so a checker that found nothing
		// still shows a zero instead of a missing series.
		reg.Counter(MetricCheckerReports, "Ranked reports emitted per checker.",
			obs.L("checker", name)).Add(0)
	}
	for name, d := range r.Timing.Derive {
		reg.Counter(MetricDeriveSeconds, "Wall-clock seconds per checker rule derivation.",
			obs.L("checker", name)).Add(d.Seconds())
	}
	for name, st := range r.EngineStats {
		reg.Counter(MetricCheckerVisits, "CFG block visits performed per checker.",
			obs.L("checker", name)).Add(float64(st.Visits))
		reg.Counter(MetricCheckerMemoHits, "Block visits skipped by memoization per checker.",
			obs.L("checker", name)).Add(float64(st.MemoHits))
	}
	for _, rep := range r.Reports.Ranked() {
		base := CheckerBase(rep.Checker)
		reg.Counter(MetricCheckerReports, "", obs.L("checker", base)).Inc()
		if rep.Statistical() {
			reg.Histogram(MetricReportZ,
				"Distribution of z scores over each checker's statistical reports.",
				obs.ZScoreBuckets, obs.L("checker", base)).Observe(rep.Z)
		}
	}
	reg.Counter(MetricTokenCacheHits,
		"Header scans absorbed by the shared token cache.").Add(float64(r.Timing.TokenCacheHits))
	reg.Counter(MetricTokenCacheMiss,
		"Header scans that had to lex the file.").Add(float64(r.Timing.TokenCacheMisses))
	if r.Snapshot.Enabled {
		reg.Counter(MetricSnapshotUnits, "Translation units served per snapshot outcome.",
			obs.L("outcome", "reused")).Add(float64(r.Snapshot.UnitsReused))
		reg.Counter(MetricSnapshotUnits, "", obs.L("outcome", "parsed")).Add(float64(r.Snapshot.UnitsParsed))
		reg.Counter(MetricSnapshotGraphs, "Function CFGs served per snapshot outcome.",
			obs.L("outcome", "reused")).Add(float64(r.Snapshot.GraphsReused))
		reg.Counter(MetricSnapshotGraphs, "", obs.L("outcome", "built")).Add(float64(r.Snapshot.GraphsBuilt))
		reg.Counter(MetricSnapshotParts, "Per-function checker partials served per snapshot outcome.",
			obs.L("outcome", "reused")).Add(float64(r.Snapshot.PartialsReused))
		reg.Counter(MetricSnapshotParts, "", obs.L("outcome", "built")).Add(float64(r.Snapshot.PartialsBuilt))
	}
	reg.Counter(MetricFunctions, "Functions analyzed.").Add(float64(r.FuncCount))
	reg.Counter(MetricLines, "Source lines analyzed.").Add(float64(r.LineCount))
	for _, q := range r.Quarantined {
		// Label by top-level stage ("checker:null" → "checker") to keep
		// series cardinality fixed regardless of checker selection.
		stage := q.Stage
		if i := strings.IndexByte(stage, ':'); i >= 0 {
			stage = stage[:i]
		}
		reg.Counter(MetricQuarantined,
			"Units of work quarantined instead of analyzed, by pipeline stage.",
			obs.L("stage", stage)).Inc()
	}
	if r.PanicsRecovered > 0 {
		reg.Counter(MetricPanics,
			"Worker panics recovered into quarantine records.").Add(float64(r.PanicsRecovered))
	}
	if r.Degraded {
		reg.Counter(MetricDegradedRuns,
			"Runs that completed with at least one quarantined unit.").Inc()
	}
}
