package core

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"deviant/internal/checkers/null"
	"deviant/internal/cpp"
	"deviant/internal/snapshot"
)

const miniHeader = `
#define NULL 0
struct s { int x; struct s *next; };
void *kmalloc(int n);
void printk(const char *fmt, ...);
void panic(const char *fmt, ...);
`

func analyzeSrc(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	res, err := New(opts, nil).AnalyzeSources(map[string]string{
		"unit.c":           src,
		"include/kernel.h": miniHeader,
	})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return res
}

func TestPipelineFindsNullBug(t *testing.T) {
	res := analyzeSrc(t, `
#include "kernel.h"
void f(struct s *p) {
	if (p == NULL)
		printk("%d\n", p->x);
}
`, DefaultOptions())
	rs := res.Reports.ByChecker("null")
	if len(rs) != 1 {
		t.Fatalf("reports: %+v", res.Reports.Ranked())
	}
	if !strings.Contains(rs[0].Message, "p") {
		t.Errorf("message: %s", rs[0].Message)
	}
}

func TestChecksSubset(t *testing.T) {
	src := `
#include "kernel.h"
void f(struct s *p) {
	if (p == NULL)
		printk("%d\n", p->x);
}
`
	opts := DefaultOptions()
	opts.Checks = Checks{Fail: true} // null checker off
	res := analyzeSrc(t, src, opts)
	if len(res.Reports.ByChecker("null")) != 0 {
		t.Error("disabled checker produced reports")
	}
}

func TestNullConfigOverride(t *testing.T) {
	src := `
#include "kernel.h"
void f(struct s *p) {
	if (p == NULL)
		printk("%d\n", p->x);
}
`
	opts := DefaultOptions()
	cfgn := null.Config{UseThenCheck: true} // check-then-use off
	opts.NullConfig = &cfgn
	res := analyzeSrc(t, src, opts)
	if len(res.Reports.ByChecker("null/check-then-use")) != 0 {
		t.Error("overridden config ignored")
	}
}

func TestParseErrorsNonFatal(t *testing.T) {
	res := analyzeSrc(t, `
#include "kernel.h"
int bad syntax here @;
void f(struct s *p) {
	if (p == NULL)
		printk("%d\n", p->x);
}
`, DefaultOptions())
	if len(res.ParseErrors) == 0 {
		t.Error("expected frontend diagnostics")
	}
	if len(res.Reports.ByChecker("null")) != 1 {
		t.Errorf("analysis should survive parse errors: %+v", res.Reports.Ranked())
	}
}

func TestMissingIncludeSurfacesError(t *testing.T) {
	res, err := New(DefaultOptions(), nil).AnalyzeSources(map[string]string{
		"unit.c": "#include \"nope.h\"\nint x;\n",
	})
	if err != nil {
		t.Fatalf("missing include should be a diagnostic, not fatal: %v", err)
	}
	if len(res.ParseErrors) == 0 {
		t.Error("missing include not reported")
	}
}

func TestNoUnitsErrors(t *testing.T) {
	if _, err := New(DefaultOptions(), nil).AnalyzeSources(map[string]string{"a.h": "int x;"}); err == nil {
		t.Error("no .c units should error")
	}
}

func TestDefines(t *testing.T) {
	opts := DefaultOptions()
	opts.Defines = map[string]string{"CONFIG_SMP": "1"}
	res, err := New(opts, nil).AnalyzeSources(map[string]string{
		"a.c": `
#define NULL 0
struct s { int x; };
#ifdef CONFIG_SMP
void f(struct s *p) { if (p == NULL) use(p->x); }
#endif
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports.ByChecker("null")) != 1 {
		t.Errorf("define not applied: %+v", res.Reports.Ranked())
	}
}

func TestEngineStatsPopulated(t *testing.T) {
	res := analyzeSrc(t, `
#include "kernel.h"
void f(struct s *p) { use(p->x); }
`, DefaultOptions())
	st, ok := res.EngineStats["null"]
	if !ok || st.Visits == 0 {
		t.Errorf("engine stats: %+v", res.EngineStats)
	}
}

func TestAnalyzeFSWithDirFS(t *testing.T) {
	dir := t.TempDir()
	fs := cpp.MapFS{} // sanity: MapFS path also works through AnalyzeFS
	_ = fs
	writeFile(t, dir+"/m.c", "#include \"k.h\"\nvoid f(struct s *p) { if (p == NULL) use(p->x); }\n")
	writeFile(t, dir+"/include/k.h", miniHeader)
	res, err := New(DefaultOptions(), nil).AnalyzeFS(cpp.DirFS(dir), []string{"m.c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports.ByChecker("null")) != 1 {
		t.Errorf("DirFS analysis: %+v", res.Reports.Ranked())
	}
}

func TestLineAndFuncCounts(t *testing.T) {
	res := analyzeSrc(t, `
#include "kernel.h"
void f(void) { }
void g(void) { }
`, DefaultOptions())
	if res.FuncCount != 2 {
		t.Errorf("funcs: %d", res.FuncCount)
	}
	if res.LineCount < 4 {
		t.Errorf("lines: %d", res.LineCount)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTimingDeriveEntries pins that every enabled deriving checker gets
// its own Timing.Derive entry, that non-deriving checkers get none, and
// that a subset run times only what it derives.
func TestTimingDeriveEntries(t *testing.T) {
	src := `
#include "kernel.h"
void f(struct s *p) {
	if (p == NULL)
		printk("%d\n", p->x);
}
`
	deriving := []string{"fail", "intr", "iserr", "lockvar", "null", "pairing", "reverse", "seccheck"}
	res := analyzeSrc(t, src, DefaultOptions())
	if got := mapKeys(res.Timing.Derive); !slices.Equal(got, deriving) {
		t.Errorf("Derive entries %v, want %v", got, deriving)
	}
	for _, name := range deriving {
		if _, ok := res.Timing.Checkers[name]; !ok {
			t.Errorf("%s: derive timed but traversal missing from Checkers", name)
		}
	}
	if out := res.Timing.String(); !strings.Contains(out, "derive") || !strings.Contains(out, "  lockvar") {
		t.Errorf("Timing.String() missing derive rows:\n%s", out)
	}

	opts := DefaultOptions()
	opts.Checks = Checks{LockVar: true, Free: true, Pairing: true}
	res = analyzeSrc(t, src, opts)
	if got := mapKeys(res.Timing.Derive); !slices.Equal(got, []string{"lockvar", "pairing"}) {
		t.Errorf("subset Derive entries %v, want [lockvar pairing]", got)
	}
}

func mapKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestTimingCoversTotal pins that the named stages account for the run:
// on cold and warm seed-1 linux247 runs at one worker, frontend,
// semantic, cfg, every checker row, every derive row and fingerprint add
// up to at least 95 % of Total.
func TestTimingCoversTotal(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 1
	opts.Snapshot = snapshot.NewStore(0)
	a := New(opts, nil)
	srcs := linux247Seed1()
	for _, run := range []string{"cold", "warm"} {
		res, err := a.AnalyzeSources(srcs)
		if err != nil {
			t.Fatal(err)
		}
		tm := res.Timing
		named := tm.Frontend + tm.Semantic + tm.CFG + tm.Fingerprint
		for _, m := range []map[string]time.Duration{tm.Checkers, tm.Derive} {
			for _, d := range m {
				named += d
			}
		}
		if named < tm.Total*95/100 {
			t.Errorf("%s run: named stages cover %v of total %v (%.1f%%), want >= 95%%:\n%s",
				run, named, tm.Total, 100*float64(named)/float64(tm.Total), tm)
		}
		t.Logf("%s run: %.1f%% of %v named\n%s", run, 100*float64(named)/float64(tm.Total), tm.Total, tm)
	}
}
