package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"deviant/internal/corpus"
	"deviant/internal/snapshot"
)

// incrHeader is shared by every unit of the incremental test corpus.
const incrHeader = `
#define NULL 0
struct dev { int count; int *buf; struct lock *lk; };
struct lock { int held; };
void *kmalloc(int n);
void kfree(void *p);
void printk(const char *fmt, ...);
void spin_lock(struct lock *l);
void spin_unlock(struct lock *l);
void panic(const char *fmt, ...);
`

// incrSources is a three-unit corpus with cross-unit statistical signal
// (kmalloc checked in some callers, not others) so that editing one unit
// perturbs global rule derivation and ranking.
func incrSources() map[string]string {
	return map[string]string{
		"include/kernel.h": incrHeader,
		"alpha.c": `
#include "kernel.h"
int alpha_init(struct dev *d) {
	int *b = kmalloc(16);
	if (!b)
		return -1;
	d->buf = b;
	return 0;
}
int alpha_reset(struct dev *d) {
	if (d == NULL)
		printk("reset %d\n", d->count);
	return 0;
}
`,
		"beta.c": `
#include "kernel.h"
int beta_grow(struct dev *d, int n) {
	int *b = kmalloc(n);
	if (!b)
		return -1;
	d->buf = b;
	return 0;
}
void beta_work(struct dev *d) {
	spin_lock(d->lk);
	d->count++;
	spin_unlock(d->lk);
}
`,
		"gamma.c": `
#include "kernel.h"
int gamma_open(struct dev *d) {
	int *b = kmalloc(8);
	b[0] = 1;
	return 0;
}
`,
	}
}

// renderResult flattens everything user-visible about a run into one
// string, so byte-identity between warm and cold runs is a single compare.
func renderResult(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "funcs=%d lines=%d parse_errors=%d\n",
		res.FuncCount, res.LineCount, len(res.ParseErrors))
	for i, r := range res.Reports.Ranked() {
		fmt.Fprintf(&b, "%4d. %s\n", i+1, r.String())
	}
	for _, p := range res.Pairs {
		fmt.Fprintf(&b, "pair %s/%s %d/%d z=%.4f\n", p.Key.A, p.Key.B, p.Examples(), p.Checks, p.Z)
	}
	for _, d := range res.CanFail {
		fmt.Fprintf(&b, "canfail %s %d/%d z=%.4f\n", d.Key, d.Examples(), d.Checks, d.Z)
	}
	for _, bd := range res.LockBindings {
		fmt.Fprintf(&b, "lock %s/%s %d/%d z=%.4f\n", bd.Key.Lock, bd.Key.Var, bd.Examples(), bd.Checks, bd.Z)
	}
	return b.String()
}

// TestIncrementalDeterminism is the acceptance pin for the snapshot
// subsystem: after editing 1 of 3 units, a warm run over the store must
// re-parse only the edited unit (asserted via the run's cache counters)
// and produce output byte-identical to a cold full run.
func TestIncrementalDeterminism(t *testing.T) {
	store := snapshot.NewStore(0)
	warmOpts := DefaultOptions()
	warmOpts.Snapshot = store
	warm := New(warmOpts, nil)

	v1 := incrSources()
	r1, err := warm.AnalyzeSources(v1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Snapshot.UnitsParsed != 3 || r1.Snapshot.UnitsReused != 0 {
		t.Fatalf("cold fill: %+v, want 3 parsed / 0 reused", r1.Snapshot)
	}
	if r1.Snapshot.GraphsBuilt == 0 || r1.Snapshot.GraphsReused != 0 {
		t.Fatalf("cold fill graphs: %+v", r1.Snapshot)
	}

	// Edit one unit: gamma_open grows a check, shifting the global
	// can-fail evidence for kmalloc.
	v2 := incrSources()
	v2["gamma.c"] = `
#include "kernel.h"
int gamma_open(struct dev *d) {
	int *b = kmalloc(8);
	if (!b)
		return -1;
	b[0] = 1;
	return 0;
}
`
	r2, err := warm.AnalyzeSources(v2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Snapshot.UnitsReused != 2 || r2.Snapshot.UnitsParsed != 1 {
		t.Fatalf("warm run: %+v, want 2 reused / 1 parsed", r2.Snapshot)
	}
	if r2.Snapshot.GraphsReused == 0 {
		t.Fatalf("warm run reused no graphs: %+v", r2.Snapshot)
	}

	cold, err := New(DefaultOptions(), nil).AnalyzeSources(v2)
	if err != nil {
		t.Fatal(err)
	}
	warmOut, coldOut := renderResult(r2), renderResult(cold)
	if warmOut != coldOut {
		t.Errorf("warm incremental output diverges from cold run:\n--- warm\n%s--- cold\n%s", warmOut, coldOut)
	}
	if !strings.Contains(warmOut, "canfail kmalloc") {
		t.Errorf("corpus lost its statistical signal:\n%s", warmOut)
	}

	// The edit must actually change analysis output (otherwise this test
	// could pass by serving fully stale results).
	if renderResult(r1) == warmOut {
		t.Error("editing gamma.c did not change output; test corpus is too weak")
	}
}

// TestIncrementalDeterminismAcrossWorkers pins that reuse composes with
// the parallel pipeline: every worker count over a warm store yields the
// same bytes.
func TestIncrementalDeterminismAcrossWorkers(t *testing.T) {
	v2 := incrSources()
	v2["beta.c"] = strings.Replace(v2["beta.c"], "d->count++", "d->count += 2", 1)

	var want string
	for _, workers := range []int{1, 4, 8} {
		store := snapshot.NewStore(0)
		opts := DefaultOptions()
		opts.Snapshot = store
		opts.Workers = workers
		a := New(opts, nil)
		if _, err := a.AnalyzeSources(incrSources()); err != nil {
			t.Fatal(err)
		}
		res, err := a.AnalyzeSources(v2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Snapshot.UnitsReused != 2 {
			t.Fatalf("workers=%d: %+v, want 2 reused", workers, res.Snapshot)
		}
		out := renderResult(res)
		if want == "" {
			want = out
		} else if out != want {
			t.Errorf("workers=%d: output differs from workers=1", workers)
		}
	}
}

// TestSnapshotDisabledIsZeroValued pins that runs without a store report
// no reuse stats, so callers can gate display on Snapshot.Enabled.
func TestSnapshotDisabledIsZeroValued(t *testing.T) {
	res, err := New(DefaultOptions(), nil).AnalyzeSources(incrSources())
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != (snapshot.RunStats{}) {
		t.Errorf("Snapshot = %+v, want zero value", res.Snapshot)
	}
}

// TestPersistentSnapshotAcrossRestart is the acceptance pin for the
// snapshot store's disk tier: a fresh Store over the same cache
// directory (a simulated process restart) must reuse every unit and
// produce byte-identical output; corrupting an entry on disk must be
// detected, evicted and recomputed — after which warm equals cold
// again.
func TestPersistentSnapshotAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srcs := incrSources()

	cold := func() (*Result, *snapshot.Store) {
		store := snapshot.NewStore(0)
		if err := store.AttachDisk(dir); err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Snapshot = store
		res, err := New(opts, nil).AnalyzeSources(srcs)
		if err != nil {
			t.Fatal(err)
		}
		return res, store
	}

	r1, s1 := cold()
	if r1.Snapshot.UnitsParsed != 3 {
		t.Fatalf("first run: %+v, want 3 parsed", r1.Snapshot)
	}
	if st := s1.Stats(); st.DiskWrites != 3 {
		t.Fatalf("first run disk writes: %+v", st)
	}
	want := renderResult(r1)

	// Restart: brand-new store, same directory, all units from disk.
	r2, s2 := cold()
	if r2.Snapshot.UnitsReused != 3 || r2.Snapshot.UnitsParsed != 0 {
		t.Fatalf("restart run: %+v, want 3 reused", r2.Snapshot)
	}
	if st := s2.Stats(); st.DiskHits != 3 {
		t.Fatalf("restart disk hits: %+v", st)
	}
	if got := renderResult(r2); got != want {
		t.Errorf("warm-from-disk output differs from cold:\n--- cold ---\n%s--- warm ---\n%s", want, got)
	}

	// Corrupt one entry (flip a payload byte): the next restart detects
	// it, re-parses exactly that unit, rewrites it, and output is still
	// byte-identical.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), ".art") || corrupted {
			continue
		}
		p := filepath.Join(dir, de.Name())
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0xff
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted = true
	}
	if !corrupted {
		t.Fatal("no entry file found to corrupt")
	}

	r3, s3 := cold()
	if st := s3.Stats(); st.DiskCorrupt != 1 {
		t.Fatalf("corruption not detected: %+v", st)
	}
	if r3.Snapshot.UnitsReused != 2 || r3.Snapshot.UnitsParsed != 1 {
		t.Fatalf("post-corruption run: %+v, want 2 reused / 1 parsed", r3.Snapshot)
	}
	if got := renderResult(r3); got != want {
		t.Errorf("post-corruption output differs from cold:\n%s", got)
	}

	// Fully healed: one more restart reuses everything again.
	r4, _ := cold()
	if r4.Snapshot.UnitsReused != 3 {
		t.Fatalf("healed run: %+v, want 3 reused", r4.Snapshot)
	}
	if got := renderResult(r4); got != want {
		t.Errorf("healed output differs from cold")
	}
}

// renderFull extends renderResult to everything a warm run must
// reproduce: fingerprints, all eight derived tables, engine statistics
// and the quarantine section.
func renderFull(res *Result) string {
	var b strings.Builder
	b.WriteString(renderWithQuarantine(res))
	for _, r := range res.Reports.Ranked() {
		fmt.Fprintf(&b, "fp %s %s\n", r.Fingerprint, r.Pos)
	}
	for _, tbl := range []any{res.Pairs, res.CanFail, res.CanFailNever, res.IsErrFuncs,
		res.LockBindings, res.IntrFuncs, res.SecChecks, res.Reversals} {
		fmt.Fprintf(&b, "%+v\n", tbl)
	}
	names := make([]string, 0, len(res.EngineStats))
	for n := range res.EngineStats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "engine %s %+v\n", n, res.EngineStats[n])
	}
	return b.String()
}

// linux247Seed1 is the seed-1 linux247 tree, the repository benchmark's
// default input: 80 units of 17 functions sharing include/kernel.h.
func linux247Seed1() map[string]string {
	spec := corpus.Linux247()
	spec.Seed = 1
	return corpus.Generate(spec).Files
}

// perFuncCheckers is how many per-function checkers (and so partials per
// function) a default run has: null, free, iserr, fail, lockvar, pairing,
// intr, seccheck and reverse.
const perFuncCheckers = 9

// funcsIn counts the analyzed functions defined in the named units.
func funcsIn(res *Result, units ...string) int {
	n := 0
	for _, fd := range res.Prog.Funcs {
		if slices.Contains(units, fd.NamePos.File) {
			n++
		}
	}
	return n
}

// TestIncrementalEditSequence walks a warm store through four edits of the
// linux247 seed-1 tree at Workers 1 and 4. At every step the warm run
// must equal a cold run of the same tree, and it must rebuild exactly
// the partials its edit invalidated: those of units whose version
// changed — the edited unit, and a unit reverted to its base version,
// whose partials the store dropped when the edit superseded it — plus
// every lockvar partial when lockvar's pre-pass facts change.
func TestIncrementalEditSequence(t *testing.T) {
	base := linux247Seed1()
	const u, v = "drivers/eth2.c", "drivers/eth14.c"
	with := func(edits map[string]string) map[string]string {
		out := make(map[string]string, len(base))
		for k, s := range base {
			out[k] = s + edits[k]
		}
		return out
	}
	// Each step's wantBuilt gets the warm result and the total function
	// count and returns the partials the step must rebuild.
	steps := []struct {
		name      string
		srcs      map[string]string
		wantBuilt func(res *Result, total int) int
	}{
		{"append a clean function", with(map[string]string{u: "\nint edit_clean(int x)\n{\n\treturn x + 1;\n}\n"}),
			func(res *Result, total int) int { return perFuncCheckers * funcsIn(res, u) }},
		{"wrap a global access in a new lock pair", with(map[string]string{v: `
static struct spinlock eth14_newlock;
int edit_locked(int x)
{
	spin_lock(&eth14_newlock);
	eth14_tmp = x;
	spin_unlock(&eth14_newlock);
	return x;
}
`}),
			func(res *Result, total int) int {
				changed := funcsIn(res, u, v)
				return perFuncCheckers*changed + (total - changed)
			}},
		{"edit the shared header", with(map[string]string{"include/kernel.h": "int edit_decl(int x);\n"}),
			func(res *Result, total int) int { return perFuncCheckers * total }},
		{"revert to the base tree", base,
			func(res *Result, total int) int { return perFuncCheckers * total }},
	}
	cold := make([]string, len(steps))
	for i, st := range steps {
		res, err := New(DefaultOptions(), nil).AnalyzeSources(st.srcs)
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = renderFull(res)
	}
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		opts.Snapshot = snapshot.NewStore(0)
		warm := New(opts, nil)
		fill, err := warm.AnalyzeSources(base)
		if err != nil {
			t.Fatal(err)
		}
		total := fill.FuncCount
		if got := fill.Snapshot.PartialsBuilt; got != perFuncCheckers*total || fill.Snapshot.PartialsReused != 0 {
			t.Fatalf("workers=%d fill: %+v, want %d built", workers, fill.Snapshot, perFuncCheckers*total)
		}
		for i, st := range steps {
			res, err := warm.AnalyzeSources(st.srcs)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderFull(res); got != cold[i] {
				t.Errorf("workers=%d %s: warm output differs from cold", workers, st.name)
			}
			sn := res.Snapshot
			want := st.wantBuilt(res, res.FuncCount)
			if sn.PartialsBuilt != want || sn.PartialsBuilt+sn.PartialsReused != perFuncCheckers*res.FuncCount {
				t.Errorf("workers=%d %s: partials built %d reused %d, want %d built of %d",
					workers, st.name, sn.PartialsBuilt, sn.PartialsReused, want, perFuncCheckers*res.FuncCount)
			}
		}
	}
}

// TestIncrementalConcurrentVersions runs two warm analyses of different
// versions of one unit over one store at the same time, several rounds,
// so each supersedes the other's partials mid-run (run it under -race).
// Every result must equal the cold run of its own tree.
func TestIncrementalConcurrentVersions(t *testing.T) {
	trees := []map[string]string{incrSources(), incrSources()}
	trees[1]["gamma.c"] = strings.Replace(trees[1]["gamma.c"], "b[0] = 1;", "if (!b)\n\t\treturn -1;\n\tb[0] = 1;", 1)
	want := make([]string, len(trees))
	for i, srcs := range trees {
		res, err := New(DefaultOptions(), nil).AnalyzeSources(srcs)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderFull(res)
	}
	if want[0] == want[1] {
		t.Fatal("the two versions analyze identically; the test cannot tell them apart")
	}
	opts := DefaultOptions()
	opts.Workers = 2
	opts.Snapshot = snapshot.NewStore(0)
	a := New(opts, nil)
	for round := 0; round < 4; round++ {
		got := make([]string, len(trees))
		var wg sync.WaitGroup
		for i := range trees {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := a.AnalyzeSources(trees[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = renderFull(res)
			}(i)
		}
		wg.Wait()
		for i := range trees {
			if got[i] != want[i] {
				t.Errorf("round %d version %d: warm output differs from cold", round, i)
			}
		}
	}
}
