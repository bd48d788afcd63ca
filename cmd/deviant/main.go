// Command deviant runs the belief-inference checkers over a C source
// tree and prints ranked error reports.
//
// Usage:
//
//	deviant [flags] <dir>
//
// The directory is searched recursively for .c translation units;
// #include resolves against the unit's directory plus every -I dir
// (default: <dir>/include).
//
// Flags:
//
//	-top N        print only the N highest-ranked reports (0 = all)
//	-checkers s   comma-separated subset: null,free,userptr,iserr,fail,
//	              lockvar,pairing,intr,seccheck,reverse,retconv,redundant
//	              (default: all)
//	-rules        also print the derived rule instances
//	-p0 f         expected example probability for the z statistic
//	-no-memo      disable engine memoization (slower; for comparison)
//	-no-prune     keep panic/BUG paths (more false positives)
//	-j N          run the pipeline on N worker goroutines (0 = all CPUs,
//	              1 = serial; output is identical for every N)
//	-stats        print per-stage wall-clock timing and a per-checker
//	              table (duration, reports, block visits) after the reports
//	-trace FILE   write a Chrome trace-event JSON of the run to FILE;
//	              load it in Perfetto (ui.perfetto.dev) or chrome://tracing
//	-json         one JSON object per line on stdout: first a summary
//	              (units, functions, lines, parse_errors), then reports
//	-trust        §5 trustworthiness-augmented ranking
//	-timeout d    wall-clock budget for the whole run (0 = none); an
//	              overrun run still prints what it finished, notes the
//	              partial results on stderr, and exits 4
//	-diff OLDDIR  cross-version mode (§4.2): check that <dir> preserves
//	              the invariants OLDDIR's code implied; prints the drift
//	              list and then the new version's ranked reports
//	-only-changed with -diff: compare the two runs by fingerprint and
//	              emit only new findings (in the new version but not the
//	              old) and fixed ones (gone from the new version)
//	-baseline m   "write" records every finding's fingerprint to the
//	              baseline file after the run; "use" suppresses every
//	              baselined finding from the output (known findings
//	              stop interrupting — only deviations from the baseline
//	              surface)
//	-baseline-file f  baseline path (default "deviant.baseline")
//	-compact      one small JSON object per finding ({"f","c","p","m",
//	              ...}), fingerprint first — the byte-thrifty stream for
//	              agent consumers
//	-journal FILE write a JSONL run journal to FILE: run_start,
//	              per-record quarantine, rank, and run_end events under
//	              the fixed run id "local" (DESIGN.md §13 schema — the
//	              same event vocabulary deviantd journals per request)
//
// Exit codes: 0 on a clean run (reports may still be printed — deviant
// finds bugs, it does not gate on them), 1 on a fatal error, 2 on bad
// usage, 3 when the frontend reported parse errors, 4 when -timeout
// expired mid-run, so CI scripts can tell "clean corpus, no bugs" from
// "corpus didn't parse" from "results are partial".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"deviant"
	"deviant/internal/core"
	"deviant/internal/cpp"
	"deviant/internal/obs"
	"deviant/internal/report"
)

// exitParseErrors is the exit code for "the corpus did not fully parse":
// distinct from 1 (fatal error) and 2 (usage) so scripts can gate on
// frontend health.
const exitParseErrors = 3

// exitDeadline is the exit code for "-timeout expired mid-run": the
// printed results cover only the work that finished in budget.
const exitDeadline = 4

func main() {
	log.SetFlags(0)
	log.SetPrefix("deviant: ")

	top := flag.Int("top", 0, "print only the N highest-ranked reports (0 = all)")
	checkers := flag.String("checkers", "", "comma-separated checker subset (default all)")
	rules := flag.Bool("rules", false, "print derived rule instances")
	p0 := flag.Float64("p0", deviant.DefaultP0, "expected example probability for z")
	noMemo := flag.Bool("no-memo", false, "disable engine memoization")
	noPrune := flag.Bool("no-prune", false, "disable crash-path pruning")
	workers := flag.Int("j", 0, "pipeline worker goroutines (0 = all CPUs, 1 = serial)")
	stats := flag.Bool("stats", false, "print per-stage timing and a per-checker table")
	tracePath := flag.String("trace", "", "write a Chrome trace of the run to this file")
	jsonOut := flag.Bool("json", false, "emit a summary line and reports as JSON lines")
	trust := flag.Bool("trust", false, "rank with the §5 code-trustworthiness augmentation")
	diffOld := flag.String("diff", "", "cross-version mode: directory of the OLD version; the positional dir is the new one")
	onlyChanged := flag.Bool("only-changed", false, "with -diff: emit only new and fixed findings, keyed by fingerprint")
	baselineMode := flag.String("baseline", "", `baseline mode: "write" records finding fingerprints, "use" suppresses baselined findings`)
	baselineFile := flag.String("baseline-file", "deviant.baseline", "baseline file for -baseline write|use")
	compact := flag.Bool("compact", false, "emit compact JSONL findings (one small object per report)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the run (0 = none); exit 4 with partial results on overrun")
	journalPath := flag.String("journal", "", "write a JSONL run journal (run start, quarantine, rank, run end) to this file")
	flag.Parse()

	usage := func(msg string) {
		fmt.Fprintln(os.Stderr, "deviant: "+msg)
		fmt.Fprintln(os.Stderr, "usage: deviant [flags] <dir>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		usage("exactly one directory argument required")
	}
	if *baselineMode != "" && *baselineMode != "write" && *baselineMode != "use" {
		usage(`-baseline must be "write" or "use"`)
	}
	if *baselineMode != "" && *diffOld != "" {
		usage("-baseline does not combine with -diff (use -only-changed to see what changed)")
	}
	if *onlyChanged && *diffOld == "" {
		usage("-only-changed requires -diff")
	}
	if *compact && *diffOld != "" {
		usage("-compact does not combine with -diff")
	}
	if *compact && *jsonOut {
		usage("-compact and -json are alternative output modes; pick one")
	}
	dir := flag.Arg(0)

	opts := deviant.DefaultOptions()
	opts.P0 = *p0
	opts.Memoize = !*noMemo
	opts.DisableCrashPruning = *noPrune
	opts.Workers = *workers
	if *checkers != "" {
		opts.Checks = parseCheckers(*checkers)
	}
	if *timeout > 0 {
		opts.Deadline = time.Now().Add(*timeout)
	}
	var tr *deviant.Tracer
	if *tracePath != "" {
		tr = deviant.NewTracer()
		opts.Tracer = tr
	}
	// A CLI run's journal uses the fixed run id "local" (there is no
	// request id to adopt), which keeps journal bytes reproducible for
	// a given corpus modulo timestamps.
	var journal *obs.Journal
	var journalFile *os.File
	if *journalPath != "" {
		f, err := os.Create(*journalPath)
		if err != nil {
			log.Fatalf("journal: %v", err)
		}
		journalFile = f
		journal = obs.NewJournal(f, "local")
		opts.Journal = journal
	}
	closeJournal := func() {
		if journalFile == nil {
			return
		}
		if err := journal.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "deviant: journal: %v\n", err)
		}
		if err := journalFile.Close(); err != nil {
			log.Fatalf("journal: %v", err)
		}
	}

	if *diffOld != "" {
		journal.Event("run_start", obs.A("mode", "diff"))
		parseErrs, deadlineHit, err := runDiff(os.Stdout, *diffOld, dir, opts, *top, *jsonOut, *trust, *onlyChanged)
		if err != nil {
			log.Fatal(err)
		}
		writeTrace(*tracePath, tr)
		exit := 0
		switch {
		case deadlineHit:
			exit = exitDeadline
		case parseErrs > 0:
			exit = exitParseErrors
		}
		journal.Event("run_end", obs.A("exit", fmt.Sprint(exit)))
		closeJournal()
		if deadlineHit {
			fmt.Fprintln(os.Stderr, "deviant: -timeout expired; results are partial")
			os.Exit(exitDeadline)
		}
		if parseErrs > 0 {
			os.Exit(exitParseErrors)
		}
		return
	}

	units, err := findUnits(dir)
	if err != nil {
		log.Fatal(err)
	}
	if len(units) == 0 {
		log.Fatalf("no .c files under %s", dir)
	}
	journal.Event("run_start", obs.A("mode", "cli"), obs.A("units", fmt.Sprint(len(units))))

	res, err := deviant.AnalyzeFS(cpp.DirFS(dir), units, opts)
	if err != nil {
		log.Fatal(err)
	}
	if !*jsonOut && !*compact {
		fmt.Printf("%d translation units, %d functions, %d lines\n",
			len(units), res.FuncCount, res.LineCount)
	}
	for _, e := range res.ParseErrors {
		fmt.Fprintf(os.Stderr, "frontend: %v\n", e)
	}

	if *rules {
		printRules(res)
	}

	rankSpan := tr.Start("rank")
	ranked := res.Reports.Ranked()
	if *trust {
		ranked = res.Reports.RankedWithTrust(res.Reports.TrustFromMustErrors())
	}
	rankSpan.End()

	// Baseline handling runs between ranking and presentation: "use"
	// subtracts the known-finding set before anything is printed;
	// "write" records the full ranked set and still prints it, so one
	// run can both adopt a baseline and show what it covers.
	suppressed := 0
	if *baselineMode == "use" {
		bl := readBaselineFile(*baselineFile)
		kept, supp := report.Partition(ranked, bl)
		ranked, suppressed = kept, len(supp)
		journal.Event("baseline",
			obs.A("file", *baselineFile),
			obs.A("suppressed", fmt.Sprint(suppressed)))
	}
	if *baselineMode == "write" {
		writeBaselineFile(*baselineFile, ranked)
	}

	journal.Event("rank",
		obs.A("reports", fmt.Sprint(len(ranked))),
		obs.A("functions", fmt.Sprint(res.FuncCount)),
		obs.A("parse_errors", fmt.Sprint(len(res.ParseErrors))))
	if *compact {
		if err := emitCompact(os.Stdout, ranked, *top); err != nil {
			log.Fatal(err)
		}
	} else if *jsonOut {
		emitJSON(res, len(units), ranked, suppressed, *top)
	} else {
		if suppressed > 0 {
			fmt.Printf("%d reports (%d suppressed by baseline %s)\n", len(ranked), suppressed, *baselineFile)
		} else {
			fmt.Printf("%d reports\n", len(ranked))
		}
		for i, r := range ranked {
			if *top > 0 && i >= *top {
				fmt.Printf("... %d more (rerun with -top 0)\n", len(ranked)-i)
				break
			}
			fmt.Printf("%4d. %s\n", i+1, r.String())
		}
		printQuarantine(os.Stdout, res)
	}
	if *stats {
		// Keep stdout pure JSON lines in -json mode.
		w := os.Stdout
		if *jsonOut {
			w = os.Stderr
		}
		fmt.Fprint(w, res.Timing.String())
		printCheckerStats(w, res)
		if res.Degraded {
			fmt.Fprintf(w, "fault containment: %d quarantined, %d panics recovered\n",
				len(res.Quarantined), res.PanicsRecovered)
		}
	}
	writeTrace(*tracePath, tr)
	exit := 0
	switch {
	case res.DeadlineExceeded:
		exit = exitDeadline
	case len(res.ParseErrors) > 0:
		exit = exitParseErrors
	}
	journal.Event("run_end", obs.A("exit", fmt.Sprint(exit)))
	closeJournal()
	if res.DeadlineExceeded {
		fmt.Fprintln(os.Stderr, "deviant: -timeout expired; results are partial")
		os.Exit(exitDeadline)
	}
	if len(res.ParseErrors) > 0 {
		os.Exit(exitParseErrors)
	}
}

// printQuarantine renders the degraded-run section of text output: the
// canonical quarantine records, one per line, already sorted by core so
// the section is byte-identical across worker counts.
func printQuarantine(w io.Writer, res *deviant.Result) {
	if !res.Degraded {
		return
	}
	fmt.Fprintf(w, "degraded run: %d quarantined (%d panics recovered)\n",
		len(res.Quarantined), res.PanicsRecovered)
	for _, q := range res.Quarantined {
		fmt.Fprintf(w, "   q. %s\n", q.String())
	}
}

// printCheckerStats renders the per-checker table -stats promises. The
// numbers come from the same metrics registry deviantd scrapes on
// /metrics: the run is folded into a fresh registry and the table reads
// the counter handles back, so CLI stats and daemon metrics cannot drift.
func printCheckerStats(w io.Writer, res *deviant.Result) {
	reg := deviant.NewRegistry()
	res.RecordMetrics(reg)
	names := make([]string, 0, len(res.Timing.Checkers))
	for name := range res.Timing.Checkers {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "per-checker:\n")
	fmt.Fprintf(w, "  %-10s %10s %10s %8s %10s %10s\n", "checker", "seconds", "derive", "reports", "visits", "memo-hits")
	for _, name := range names {
		l := obs.L("checker", name)
		fmt.Fprintf(w, "  %-10s %10.4f %10.4f %8.0f %10.0f %10.0f\n", name,
			reg.Counter(core.MetricCheckerSeconds, "", l).Value(),
			reg.Counter(core.MetricDeriveSeconds, "", l).Value(),
			reg.Counter(core.MetricCheckerReports, "", l).Value(),
			reg.Counter(core.MetricCheckerVisits, "", l).Value(),
			reg.Counter(core.MetricCheckerMemoHits, "", l).Value())
	}
}

// writeTrace dumps the tracer's spans as Chrome trace-event JSON. A nil
// tracer (no -trace flag) is a no-op.
func writeTrace(path string, tr *deviant.Tracer) {
	if tr == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("trace: %v", err)
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		log.Fatalf("trace: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("trace: %v", err)
	}
	fmt.Fprintf(os.Stderr, "trace: wrote %d spans to %s\n", len(tr.Spans()), path)
}

// jsonSummary is the first line of -json output: corpus size and
// frontend health, so scripts can detect parse trouble without scraping
// stderr. The degraded fields are omitted on clean runs, keeping those
// bytes identical to builds that predate fault containment.
type jsonSummary struct {
	Units       int  `json:"units"`
	Functions   int  `json:"functions"`
	Lines       int  `json:"lines"`
	ParseErrors int  `json:"parse_errors"`
	Reports     int  `json:"reports"`
	Degraded    bool `json:"degraded,omitempty"`
	Quarantined int  `json:"quarantined,omitempty"`
	// Suppressed counts baselined findings removed by -baseline use;
	// omitted when no baseline applied, keeping pre-baseline bytes.
	Suppressed int `json:"suppressed,omitempty"`
}

func emitJSON(res *deviant.Result, units int, ranked []deviant.Report, suppressed, top int) {
	if err := emitJSONTo(os.Stdout, res, units, ranked, suppressed, top); err != nil {
		log.Fatal(err)
	}
}

func emitJSONTo(w io.Writer, res *deviant.Result, units int, ranked []deviant.Report, suppressed, top int) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(jsonSummary{
		Units:       units,
		Functions:   res.FuncCount,
		Lines:       res.LineCount,
		ParseErrors: len(res.ParseErrors),
		Reports:     len(ranked),
		Degraded:    res.Degraded,
		Quarantined: len(res.Quarantined),
		Suppressed:  suppressed,
	}); err != nil {
		return err
	}
	for i, r := range ranked {
		if top > 0 && i >= top {
			break
		}
		if err := enc.Encode(report.ToJSON(i+1, &r)); err != nil {
			return err
		}
	}
	// Quarantine records follow the reports: {"unit","stage","cause"}
	// lines in canonical order, present only on degraded runs.
	for _, q := range res.Quarantined {
		if err := enc.Encode(q); err != nil {
			return err
		}
	}
	return nil
}

// emitCompact renders the compact JSONL stream: one small object per
// ranked finding, fingerprint first, nothing else on stdout.
func emitCompact(w io.Writer, ranked []deviant.Report, top int) error {
	enc := json.NewEncoder(w)
	for i := range ranked {
		if top > 0 && i >= top {
			break
		}
		if err := enc.Encode(report.ToCompact(&ranked[i])); err != nil {
			return err
		}
	}
	return nil
}

// readBaselineFile loads the -baseline-file, fatally on any error: a
// missing or corrupt baseline silently suppressing nothing (or
// everything) would defeat the point of having one.
func readBaselineFile(path string) *report.Baseline {
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("baseline: %v", err)
	}
	defer f.Close()
	bl, err := report.ReadBaseline(f)
	if err != nil {
		log.Fatalf("baseline: %v", err)
	}
	return bl
}

// writeBaselineFile records every ranked finding's fingerprint. The
// note goes to stderr so every stdout mode stays machine-clean.
func writeBaselineFile(path string, ranked []deviant.Report) {
	bl := report.NewBaseline(ranked)
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("baseline: %v", err)
	}
	if err := bl.Write(f); err != nil {
		f.Close()
		log.Fatalf("baseline: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("baseline: %v", err)
	}
	fmt.Fprintf(os.Stderr, "deviant: baseline: wrote %d fingerprints to %s\n", bl.Len(), path)
}

func parseCheckers(s string) deviant.Checks {
	c, err := deviant.ParseChecks(s)
	if err != nil {
		log.Fatal(err)
	}
	return c
}

func printRules(res *deviant.Result) {
	fmt.Println("derived rule instances:")
	for i, p := range res.Pairs {
		if i >= 5 {
			break
		}
		fmt.Printf("  pair:     %s -> %s (%d/%d, z=%.2f)\n", p.Key.A, p.Key.B, p.Examples(), p.Checks, p.Z)
	}
	for i, d := range res.CanFail {
		if i >= 5 {
			break
		}
		fmt.Printf("  can-fail: %s (%d/%d, z=%.2f)\n", d.Key, d.Examples(), d.Checks, d.Z)
	}
	for i, b := range res.LockBindings {
		if i >= 5 {
			break
		}
		fmt.Printf("  lock:     %s protects %s (%d/%d, z=%.2f)\n", b.Key.Lock, b.Key.Var, b.Examples(), b.Checks, b.Z)
	}
}

// findUnits lists .c files under dir, relative, sorted.
func findUnits(dir string) ([]string, error) {
	var units []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".c") {
			rel, relErr := filepath.Rel(dir, path)
			if relErr != nil {
				return relErr
			}
			units = append(units, rel)
		}
		return nil
	})
	sort.Strings(units)
	return units, err
}

// readTree loads every file under dir into memory for Diff.
func readTree(dir string) (map[string]string, error) {
	srcs := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, relErr := filepath.Rel(dir, path)
		if relErr != nil {
			return relErr
		}
		if strings.HasSuffix(rel, ".c") || strings.HasSuffix(rel, ".h") {
			b, readErr := os.ReadFile(path)
			if readErr != nil {
				return readErr
			}
			srcs[rel] = string(b)
		}
		return nil
	})
	return srcs, err
}

// jsonDrift is the wire shape of one cross-version invariant violation.
type jsonDrift struct {
	Kind string `json:"kind"`
	Func string `json:"func"`
	Pos  string `json:"pos"`
	Msg  string `json:"msg"`
}

// runDiff cross-checks newDir against oldDir (§4.2: the same routines
// through time): it prints the invariant violations, then the new
// version's ranked reports — which include the drift reports — so the
// analysis flags (-p0, -checkers, -no-memo, -no-prune, -j) and the
// presentation flags (-top, -json, -trust) all apply exactly as in
// single-version mode. It returns the new version's frontend parse-error
// count for exit-code purposes, plus whether the -timeout deadline
// expired during either version's analysis.
func runDiff(w io.Writer, oldDir, newDir string, opts deviant.Options, top int, jsonOut, trust, onlyChanged bool) (int, bool, error) {
	oldSrcs, err := readTree(oldDir)
	if err != nil {
		return 0, false, err
	}
	newSrcs, err := readTree(newDir)
	if err != nil {
		return 0, false, err
	}
	drifts, oldRes, newRes, err := deviant.DiffResults(oldSrcs, newSrcs, opts)
	if err != nil {
		return 0, false, err
	}
	units := 0
	for name := range newSrcs {
		if strings.HasSuffix(name, ".c") {
			units++
		}
	}
	rankSpan := opts.Tracer.Start("rank")
	ranked := newRes.Reports.Ranked()
	if trust {
		ranked = newRes.Reports.RankedWithTrust(newRes.Reports.TrustFromMustErrors())
	}
	rankSpan.End()
	if onlyChanged {
		err := emitChanged(w, oldRes.Reports.Ranked(), ranked, oldDir, top, jsonOut)
		return len(newRes.ParseErrors), newRes.DeadlineExceeded || oldRes.DeadlineExceeded, err
	}
	if jsonOut {
		if err := emitJSONTo(w, newRes, units, ranked, 0, top); err != nil {
			return 0, false, err
		}
		enc := json.NewEncoder(w)
		for _, d := range drifts {
			if err := enc.Encode(jsonDrift{Kind: d.Kind, Func: d.Func, Pos: d.Pos.String(), Msg: d.Msg}); err != nil {
				return 0, false, err
			}
		}
		return len(newRes.ParseErrors), newRes.DeadlineExceeded, nil
	}
	fmt.Fprintf(w, "%d invariant violations (old: %s, new: %s)\n", len(drifts), oldDir, newDir)
	for i, d := range drifts {
		fmt.Fprintf(w, "%3d. [%s] %s at %s: %s\n", i+1, d.Kind, d.Func, d.Pos, d.Msg)
	}
	fmt.Fprintf(w, "%d reports in new version\n", len(ranked))
	for i, r := range ranked {
		if top > 0 && i >= top {
			fmt.Fprintf(w, "... %d more (rerun with -top 0)\n", len(ranked)-i)
			break
		}
		fmt.Fprintf(w, "%4d. %s\n", i+1, r.String())
	}
	printQuarantine(w, newRes)
	return len(newRes.ParseErrors), newRes.DeadlineExceeded, nil
}

// jsonChanged is the wire shape of one changed finding in -only-changed
// mode: its status ("new" or "fixed") followed by the full report.
type jsonChanged struct {
	Status string `json:"status"`
	report.JSONReport
}

// emitChanged renders the fingerprint-keyed cross-run comparison: only
// findings whose identities appear in exactly one of the two runs. New
// findings rank in new-run order, fixed ones in old-run order; -top
// bounds each list independently.
func emitChanged(w io.Writer, oldRanked, newRanked []deviant.Report, oldDir string, top int, jsonOut bool) error {
	newOnly, fixed := report.DiffByFingerprint(oldRanked, newRanked)
	clip := func(rs []deviant.Report) []deviant.Report {
		if top > 0 && len(rs) > top {
			return rs[:top]
		}
		return rs
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		if err := enc.Encode(struct {
			New   int `json:"new"`
			Fixed int `json:"fixed"`
		}{len(newOnly), len(fixed)}); err != nil {
			return err
		}
		for i, r := range clip(newOnly) {
			if err := enc.Encode(jsonChanged{"new", report.ToJSON(i+1, &r)}); err != nil {
				return err
			}
		}
		for i, r := range clip(fixed) {
			if err := enc.Encode(jsonChanged{"fixed", report.ToJSON(i+1, &r)}); err != nil {
				return err
			}
		}
		return nil
	}
	fmt.Fprintf(w, "%d new, %d fixed since %s\n", len(newOnly), len(fixed), oldDir)
	for i, r := range clip(newOnly) {
		fmt.Fprintf(w, "new %4d. %s\n", i+1, r.String())
	}
	for i, r := range clip(fixed) {
		fmt.Fprintf(w, "fixed %4d. %s\n", i+1, r.String())
	}
	return nil
}
