package deviant

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"deviant/internal/corpus"
	"deviant/internal/fuzzgen"
)

// writeRanked renders everything the statistical checkers decide, in a
// form that names no Go type: every ranked report (its text, fingerprint
// and rule), then every row of the eight derived tables in order, as its
// slots, checks, errors, z (printed with %v, so the full float), boost
// and MUST flag.
func writeRanked(b *bytes.Buffer, res *Result) {
	for _, r := range res.Reports.Ranked() {
		fmt.Fprintf(b, "%s\n\tfp=%s rule=%s\n", r.String(), r.Fingerprint, r.Rule)
	}
	row := func(table string, slots []string, checks, errors int, z, boost float64, must bool) {
		fmt.Fprintf(b, "%s %q checks=%d errors=%d z=%v boost=%v must=%v\n",
			table, slots, checks, errors, z, boost, must)
	}
	for _, p := range res.Pairs {
		row("pair", []string{p.Key.A, p.Key.B}, p.Checks, p.Errors, p.Z, p.Boost, false)
	}
	for _, d := range res.CanFail {
		row("can-fail", []string{d.Key}, d.Checks, d.Errors, d.Z, d.Boost, false)
	}
	for _, d := range res.CanFailNever {
		row("can-fail-never", []string{d.Key}, d.Checks, d.Errors, d.Z, d.Boost, false)
	}
	for _, d := range res.IsErrFuncs {
		// Counted on the majority side: the errors are the minority.
		row("iserr", []string{d.Key}, d.Checks, d.Errors, d.Z, d.Boost, d.MustUseIsErr)
	}
	for _, lb := range res.LockBindings {
		row("lock", []string{lb.Key.Var, lb.Key.Lock}, lb.Checks, lb.Errors, lb.Z, lb.Boost, lb.Must)
	}
	for _, d := range res.IntrFuncs {
		row("intr", []string{d.Key}, d.Checks, d.Errors, d.Z, d.Boost, false)
	}
	for _, d := range res.SecChecks {
		row("sec", []string{d.Key.Action, d.Key.Check}, d.Checks, d.Errors, d.Z, d.Boost, false)
	}
	for _, r := range res.Reversals {
		row("reverse", []string{r.Key.A, r.Key.B}, r.Checks, r.Errors, r.Z, r.Boost, false)
	}
}

// TestRankedOutputGolden pins the ranked reports and derived rule tables
// of real trees — the linux-2.4.7-like corpus at seed 1 and fuzzgen
// programs 1–20 at two p0 values — so a change to the statistical
// machinery (evidence, z, boost, tie-breaks, floors, site caps) that
// moves one byte of output fails here. Regenerate with UPDATE_GOLDEN=1
// only for an intentional change of findings.
func TestRankedOutputGolden(t *testing.T) {
	var b bytes.Buffer
	run := func(name string, sources map[string]string, p0 float64) {
		opts := DefaultOptions()
		opts.P0 = p0
		res, err := Analyze(sources, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "== %s p0=%v\n", name, p0)
		writeRanked(&b, res)
	}
	spec := corpus.Linux247()
	spec.Seed = 1
	run("linux247 seed=1", corpus.Generate(spec).Files, 0.9)
	for seed := int64(1); seed <= 20; seed++ {
		for _, p0 := range []float64{0.9, 0.7} {
			run(fmt.Sprintf("fuzzgen seed=%d", seed), fuzzgen.Generate(seed).Sources(), p0)
		}
	}

	path := filepath.Join("testdata", "ranked.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		got, wantLines := bytes.Split(b.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(wantLines); i++ {
			if !bytes.Equal(got[i], wantLines[i]) {
				t.Fatalf("ranked output differs from %s at line %d:\n got: %s\nwant: %s",
					path, i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("ranked output differs from %s in length: %d lines, want %d",
			path, len(got), len(wantLines))
	}
}
