// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Each experiment
// returns a rendered text block — the same rows/series the paper reports —
// plus structured data where the benchmarks assert on shape.
//
// The corpora are the synthetic kernel trees from internal/corpus; see
// DESIGN.md §2 for why that substitution preserves the behaviour each
// checker keys on.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"deviant/internal/checkers/pairing"
	"deviant/internal/checkers/version"
	"deviant/internal/core"
	"deviant/internal/corpus"
	"deviant/internal/latent"
	"deviant/internal/report"
	"deviant/internal/stats"
)

// run analyzes a corpus with the default (paper-faithful) options.
func run(c *corpus.Corpus) (*core.Result, error) {
	return core.New(core.DefaultOptions(), nil).AnalyzeSources(c.Files)
}

func runOpts(c *corpus.Corpus, opts core.Options) (*core.Result, error) {
	return core.New(opts, nil).AnalyzeSources(c.Files)
}

// scoreKind computes TP/FP/FN for one checker on one corpus. Checkers
// overlap: path-pair templates also rediscover leaked locks and broken
// IS_ERR disciplines, so those kinds absolve each other's reports.
func scoreKind(c *corpus.Corpus, res *core.Result, kind corpus.BugKind) corpus.Score {
	match := []corpus.BugKind{kind}
	switch kind {
	case corpus.MissingRevert:
		match = append(match, corpus.MissingUnlock, corpus.WrongErrCheck)
	case corpus.MissingUnlock:
		match = append(match, corpus.WrongErrCheck, corpus.IntrEnabled)
	}
	return corpus.ScoreReportsKinds(c, res.Reports.Ranked(), kind, match, 2)
}

// Table1 reproduces Table 1: the questions answerable with internal
// consistency, evaluated on the linux-2.4.7-like corpus. For each
// question it reports the contradictions found and the seeded truth.
func Table1() (string, error) {
	c := corpus.Generate(corpus.Linux247())
	res, err := run(c)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: internal consistency questions (corpus %s, %d funcs, %d lines)\n",
		c.Spec.Name, res.FuncCount, res.LineCount)
	fmt.Fprintf(&b, "%-44s %8s %8s %8s\n", "question (template)", "seeded", "found", "false")
	rows := []struct {
		q    string
		kind corpus.BugKind
	}{
		{"Is <p> a null pointer? (check-then-use)", corpus.CheckThenUse},
		{"Is <p> a null pointer? (use-then-check)", corpus.UseThenCheck},
		{"Is <p> a null pointer? (redundant check)", corpus.RedundantCheck},
		{"Is <p> a dangerous user pointer?", corpus.UserPtrDeref},
		{"Must IS_ERR check <f>'s result?", corpus.WrongErrCheck},
	}
	for _, r := range rows {
		sc := scoreKind(c, res, r.kind)
		fmt.Fprintf(&b, "%-44s %8d %8d %8d\n", r.q, c.CountOf(r.kind), sc.TruePositives, sc.FalsePositives)
	}
	return b.String(), nil
}

// Table2 reproduces Table 2: the templates derivable with statistical
// analysis. For each template it shows the top derived slot instance with
// its examples/population evidence and z value, plus the checking yield.
func Table2() (string, error) {
	c := corpus.Generate(corpus.Linux247())
	res, err := run(c)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: statistically derived templates (corpus %s)\n", c.Spec.Name)
	fmt.Fprintf(&b, "%-42s %-36s %9s %7s\n", "template", "top derived instance", "E/N", "z")

	row := func(template, instance string, cnt stats.Counter, z float64) {
		fmt.Fprintf(&b, "%-42s %-36s %4d/%-4d %7.2f\n", template, instance, cnt.Examples(), cnt.Checks, z)
	}

	if len(res.LockBindings) > 0 {
		top := res.LockBindings[0]
		row("Does lock <l> protect <v>?", top.Key.Var+" by "+top.Key.Lock, top.Counter, top.Z)
	}
	if len(res.Pairs) > 0 {
		top := res.Pairs[0]
		row("Must <a> be paired with <b>?", top.Key.A+" / "+top.Key.B, top.Counter, top.Z)
	}
	if len(res.CanFail) > 0 {
		top := res.CanFail[0]
		row("Can routine <f> fail?", top.Key, top.Counter, top.Z)
	}
	if len(res.SecChecks) > 0 {
		top := res.SecChecks[0]
		row("Does security check <y> protect <x>?", top.Key.Check+" guards "+top.Key.Action, top.Counter, top.Z)
	}
	if len(res.Reversals) > 0 {
		top := res.Reversals[0]
		row("Does <a> reverse <b>?", top.Key.B+" reverses "+top.Key.A, top.Counter, top.Z)
	}
	if len(res.IntrFuncs) > 0 {
		top := res.IntrFuncs[0]
		row("Must <f> be called with interrupts off?", top.Key, top.Counter, top.Z)
	}
	// Inverse principle demonstration (§5): rank the negated can-fail
	// template.
	if len(res.CanFailNever) > 0 {
		top := res.CanFailNever[0]
		fmt.Fprintf(&b, "%-42s %-36s %4d/%-4d %7.2f   (inverse z(n, n-e))\n",
			"Routine <f> never fails (inverse)", top.Key,
			top.Counter.Errors, top.Counter.Checks, top.Z)
	}
	return b.String(), nil
}

// Table3 reproduces Table 3 (§6.1): the internal null consistency results
// across systems. Rows are the three sub-checkers; columns report seeded
// bugs, bugs found, and false positives for each corpus.
func Table3() (string, error) {
	specs := []corpus.Spec{corpus.Linux241(), corpus.Linux247(), corpus.OpenBSD28()}
	kinds := []corpus.BugKind{corpus.CheckThenUse, corpus.UseThenCheck, corpus.RedundantCheck}

	var b strings.Builder
	b.WriteString("Table 3: internal null consistency errors\n")
	fmt.Fprintf(&b, "%-24s", "checker")
	for _, s := range specs {
		fmt.Fprintf(&b, " | %-24s", s.Name+" (bug/FP/seed)")
	}
	b.WriteString("\n")
	type cell struct{ tp, fp, seeded int }
	grid := make(map[corpus.BugKind][]cell)
	for _, spec := range specs {
		c := corpus.Generate(spec)
		res, err := run(c)
		if err != nil {
			return "", err
		}
		for _, k := range kinds {
			sc := scoreKind(c, res, k)
			grid[k] = append(grid[k], cell{sc.TruePositives, sc.FalsePositives, c.CountOf(k)})
		}
	}
	for _, k := range kinds {
		fmt.Fprintf(&b, "%-24s", string(k))
		for _, cl := range grid[k] {
			fmt.Fprintf(&b, " | %8d/%2d/%2d        ", cl.tp, cl.fp, cl.seeded)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// Table4 reproduces the Section 7 results: the user-pointer security
// checker on two systems, including cross-interface propagation.
func Table4() (string, error) {
	var b strings.Builder
	b.WriteString("Table 4: user-pointer security checker (§7)\n")
	fmt.Fprintf(&b, "%-22s %8s %8s %8s %12s\n", "corpus", "seeded", "found", "false", "interfaces")
	for _, spec := range []corpus.Spec{corpus.Linux247(), corpus.OpenBSD28()} {
		c := corpus.Generate(spec)
		res, err := run(c)
		if err != nil {
			return "", err
		}
		sc := scoreKind(c, res, corpus.UserPtrDeref)
		classes := len(res.Prog.InterfaceClasses())
		fmt.Fprintf(&b, "%-22s %8d %8d %8d %12d\n",
			spec.Name, c.CountOf(corpus.UserPtrDeref), sc.TruePositives, sc.FalsePositives, classes)
	}
	return b.String(), nil
}

// Table5 reproduces the Section 8 results: derivation of routines that
// can fail (top-ranked by z) and the IS_ERR discipline, with the errors
// each yields.
func Table5() (string, error) {
	c := corpus.Generate(corpus.Linux247())
	res, err := run(c)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Table 5: derived failure rules (§8)\n")
	b.WriteString("top routines by z for \"can <f> fail?\":\n")
	fmt.Fprintf(&b, "  %-22s %9s %7s\n", "routine", "E/N", "z")
	for i, d := range res.CanFail {
		if i >= 5 {
			break
		}
		fmt.Fprintf(&b, "  %-22s %4d/%-4d %7.2f\n", d.Key, d.Examples(), d.Checks, d.Z)
	}
	scFail := scoreKind(c, res, corpus.UncheckedAlloc)
	fmt.Fprintf(&b, "unchecked-use errors: %d found, %d false (seeded %d)\n",
		scFail.TruePositives, scFail.FalsePositives, c.CountOf(corpus.UncheckedAlloc))

	b.WriteString("IS_ERR discipline (§8.3):\n")
	fmt.Fprintf(&b, "  %-22s %8s %8s %7s\n", "routine", "IS_ERR", "other", "z")
	for i, d := range res.IsErrFuncs {
		if i >= 5 {
			break
		}
		isErr, other := d.Examples(), d.Errors // counted on the majority side
		if !d.MustUseIsErr {
			isErr, other = other, isErr
		}
		fmt.Fprintf(&b, "  %-22s %8d %8d %7.2f\n", d.Key, isErr, other, d.Z)
	}
	scErr := scoreKind(c, res, corpus.WrongErrCheck)
	fmt.Fprintf(&b, "wrong-check errors: %d found, %d false (seeded %d)\n",
		scErr.TruePositives, scErr.FalsePositives, c.CountOf(corpus.WrongErrCheck))
	return b.String(), nil
}

// Table6 reproduces the Section 9 results: derived <a>,<b> pairs ranked
// by z plus the latent-specification boost, the violations they yield,
// and the latent-boost ablation.
func Table6() (string, error) {
	c := corpus.Generate(corpus.Linux247())
	res, err := run(c)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Table 6: derived function pairs (§9)\n")
	fmt.Fprintf(&b, "  %-20s %-20s %9s %7s %6s\n", "a", "b", "E/N", "z", "boost")
	for i, p := range res.Pairs {
		if i >= 8 {
			break
		}
		fmt.Fprintf(&b, "  %-20s %-20s %4d/%-4d %7.2f %6.1f\n",
			p.Key.A, p.Key.B, p.Examples(), p.Checks, p.Z, p.Boost)
	}
	sc := scoreKind(c, res, corpus.MissingUnlock)
	fmt.Fprintf(&b, "pairing violations: %d found, %d false (seeded %d)\n",
		sc.TruePositives, sc.FalsePositives, c.CountOf(corpus.MissingUnlock))

	// Ablation: rank of the spin_lock/spin_unlock pair with and without
	// the latent boost.
	withBoost, withoutBoost := -1, -1
	for i, p := range res.Pairs {
		if p.Key == (pairing.Key{A: "spin_lock", B: "spin_unlock"}) {
			withBoost = i
		}
	}
	type scored struct {
		idx int
		z   float64
	}
	zs := make([]scored, len(res.Pairs))
	for i, p := range res.Pairs {
		zs[i] = scored{i, p.Z}
	}
	sort.SliceStable(zs, func(i, j int) bool { return zs[i].z > zs[j].z })
	for rank, s := range zs {
		p := res.Pairs[s.idx]
		if p.Key == (pairing.Key{A: "spin_lock", B: "spin_unlock"}) {
			withoutBoost = rank
		}
	}
	fmt.Fprintf(&b, "latent boost ablation: spin_lock/spin_unlock ranks #%d with boost, #%d without\n",
		withBoost+1, withoutBoost+1)
	return b.String(), nil
}

// ranked reports helper: ByChecker then positions as strings.
func checkerLines(res *core.Result, name string) []report.Report {
	return res.Reports.ByChecker(name)
}

// Timing is one point of the scalability figure.
type Timing struct {
	Name     string
	Lines    int
	Funcs    int
	Elapsed  time.Duration
	Visits   int
	MemoHits int
}

// measure runs the full pipeline and clocks it.
func measure(spec corpus.Spec, memoize bool) (Timing, error) {
	c := corpus.Generate(spec)
	opts := core.DefaultOptions()
	opts.Memoize = memoize
	start := time.Now()
	res, err := runOpts(c, opts)
	if err != nil {
		return Timing{}, err
	}
	elapsed := time.Since(start)
	visits, hits := 0, 0
	for _, s := range res.EngineStats {
		visits += s.Visits
		hits += s.MemoHits
	}
	return Timing{
		Name: spec.Name, Lines: res.LineCount, Funcs: res.FuncCount,
		Elapsed: elapsed, Visits: visits, MemoHits: hits,
	}, nil
}

// Table7 reproduces the §4.2 cross-version consistency idea: "relate the
// same routine to itself through time across different versions" and flag
// modifications that violate invariants implied by the old code. The two
// corpus snapshots share every clean function; the new one introduces
// regressions at known sites.
func Table7() (string, error) {
	oldC, newC, regressions := corpus.VersionPair(corpus.Linux241(), 2.5)
	oldRes, err := runOpts(oldC, core.Options{Checks: core.Checks{}})
	if err != nil {
		return "", err
	}
	newRes, err := runOpts(newC, core.Options{Checks: core.Checks{}})
	if err != nil {
		return "", err
	}
	col := report.NewCollector()
	drifts := version.Diff(oldRes.Prog, newRes.Prog, latent.Default(), col)

	// Which regressions is cross-version diffing expected to see?
	visible := map[corpus.BugKind]bool{
		corpus.UseThenCheck:   true, // dropped null guard
		corpus.UncheckedAlloc: true, // dropped result check
		corpus.UserPtrDeref:   true, // dropped copy_from_user
	}
	expected := map[string]corpus.BugKind{}
	for _, r := range regressions {
		if visible[r.Kind] {
			expected[r.Func] = r.Kind
		}
	}
	found := map[string]bool{}
	falsePos := 0
	for _, d := range drifts {
		if _, ok := expected[d.Func]; ok {
			found[d.Func] = true
		} else {
			falsePos++
		}
	}

	var b strings.Builder
	b.WriteString("Table 7: cross-version consistency (§4.2)\n")
	fmt.Fprintf(&b, "old: %s (%d bugs)   new: %s (%d bugs, %d regressions)\n",
		oldC.Spec.Name, len(oldC.Bugs), newC.Spec.Name, len(newC.Bugs), len(regressions))
	byKind := map[string]int{}
	for _, d := range drifts {
		byKind[d.Kind]++
	}
	for _, k := range []string{"dropped-null-check", "dropped-result-check", "user-pointer-regression", "error-convention-flip"} {
		fmt.Fprintf(&b, "  %-28s %d drifts\n", k, byKind[k])
	}
	fmt.Fprintf(&b, "visible regressions: %d, flagged: %d, extra flags: %d\n",
		len(expected), len(found), falsePos)
	return b.String(), nil
}
