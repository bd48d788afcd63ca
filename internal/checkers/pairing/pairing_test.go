package pairing

import (
	"fmt"
	"strings"
	"testing"

	"deviant/internal/cast"
	"deviant/internal/cfg"
	"deviant/internal/cparse"
	"deviant/internal/latent"
	"deviant/internal/report"
	"deviant/internal/stats"
)

func build(t *testing.T, src string) *Checker {
	t.Helper()
	f, errs := cparse.ParseSource("t.c", src)
	if len(errs) != 0 {
		t.Fatalf("parse: %v", errs)
	}
	conv := latent.Default()
	c := New(conv, DefaultLimits())
	for _, d := range f.Decls {
		if fd, ok := d.(*cast.FuncDecl); ok && fd.Body != nil {
			c.AddFunction(cfg.Build(fd, cfg.Options{NoReturn: conv.IsCrashRoutine}))
		}
	}
	return c
}

func findPair(pairs []Pair, a, b string) (Pair, bool) {
	for _, p := range pairs {
		if p.Key == (Key{a, b}) {
			return p, true
		}
	}
	return Pair{}, false
}

func TestDeriveSimplePair(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 9; i++ {
		fmt.Fprintf(&sb, "void f%d(void) { spin_lock(l); work%d(); spin_unlock(l); }\n", i, i)
	}
	sb.WriteString("void bad(void) { spin_lock(l); work_bad(); }\n")
	c := build(t, sb.String())
	pairs := c.Derive(stats.DefaultP0)
	p, ok := findPair(pairs, "spin_lock", "spin_unlock")
	if !ok {
		t.Fatalf("pair not derived: %+v", pairs)
	}
	if p.Checks != 10 || p.Errors != 1 {
		t.Errorf("counts: %+v", p)
	}
	// The lock pair must rank first: high z plus latent boost.
	if pairs[0].Key != (Key{"spin_lock", "spin_unlock"}) {
		t.Errorf("top pair: %+v", pairs[0])
	}
}

func TestPaperThousandPaths(t *testing.T) {
	// §1: "If the pairing happens 999 out of 1000 times, though, then it
	// is probably a valid belief and the sole deviation a probable
	// error." We approximate with 99/100 to keep the test fast.
	var sb strings.Builder
	for i := 0; i < 99; i++ {
		fmt.Fprintf(&sb, "void f%d(void) { my_begin(); my_end(); }\n", i)
	}
	sb.WriteString("void dev(void) { my_begin(); }\n")
	c := build(t, sb.String())
	pairs := c.Derive(stats.DefaultP0)
	p, ok := findPair(pairs, "my_begin", "my_end")
	if !ok {
		t.Fatal("pair not derived")
	}
	if p.Examples() != 99 || p.Errors != 1 {
		t.Errorf("counts: %+v", p)
	}
	if p.Z < 2.0 {
		t.Errorf("strong pairing should have high z: %v", p.Z)
	}
}

func TestCoincidenceRanksLow(t *testing.T) {
	src := `
void f1(void) { alpha(); beta(); }
void f2(void) { alpha(); gamma(); }
void f3(void) { alpha(); delta(); }
void f4(void) { alpha(); }
`
	c := build(t, src)
	pairs := c.Derive(stats.DefaultP0)
	p, ok := findPair(pairs, "alpha", "beta")
	if !ok {
		t.Fatal("candidate missing")
	}
	// 1 example out of 4 paths: strongly negative z.
	if p.Z >= 0 {
		t.Errorf("coincidence should rank below p0: %+v", p)
	}
}

func TestBranchPathsSeparate(t *testing.T) {
	// b() happens only on one branch: the path without it is a
	// counter-example.
	src := `
void f(int x) {
	open_session();
	if (x)
		close_session();
}
`
	c := build(t, src)
	if c.PathCount() != 2 {
		t.Fatalf("paths: %d", c.PathCount())
	}
	pairs := c.Derive(stats.DefaultP0)
	p, ok := findPair(pairs, "open_session", "close_session")
	if !ok {
		t.Fatal("pair missing")
	}
	if p.Checks != 2 || p.Errors != 1 {
		t.Errorf("counts: %+v", p)
	}
}

func TestErrorReportsRankedByZ(t *testing.T) {
	var sb strings.Builder
	// Strong pair: 30 good paths, 1 bad.
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&sb, "void s%d(void) { res_get(); res_put(); }\n", i)
	}
	sb.WriteString("void sbad(void) { res_get(); }\n")
	// Weak pair: 3 good paths, 1 bad.
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&sb, "void w%d(void) { weak_a(); weak_b(); }\n", i)
	}
	sb.WriteString("void wbad(void) { weak_a(); }\n")

	c := build(t, sb.String())
	col := report.NewCollector()
	c.Finish(col, stats.DefaultP0, 1, -100)
	rs := col.ByChecker("pairing")
	if len(rs) < 2 {
		t.Fatalf("reports: %+v", rs)
	}
	if !strings.Contains(rs[0].Message, "res_get") {
		t.Errorf("strong pair's violation should rank first:\n%v\n%v", rs[0], rs[1])
	}
}

func TestCrashRoutinesExcluded(t *testing.T) {
	src := `
void f(void) { begin_io(); panic("boom"); }
void g(void) { begin_io(); end_io(); }
`
	c := build(t, src)
	pairs := c.Derive(stats.DefaultP0)
	if _, ok := findPair(pairs, "begin_io", "panic"); ok {
		t.Error("panic must not appear as a pairing candidate")
	}
}

func TestIgnoredCalleesExcluded(t *testing.T) {
	src := `
void f(void) { start_tx(); printk("x"); finish_tx(); }
void g(void) { start_tx(); printk("y"); finish_tx(); }
`
	c := build(t, src)
	pairs := c.Derive(stats.DefaultP0)
	if _, ok := findPair(pairs, "start_tx", "printk"); ok {
		t.Error("printk is ignored")
	}
	if _, ok := findPair(pairs, "start_tx", "finish_tx"); !ok {
		t.Error("real pair missing")
	}
}

func TestMinExamplesFilter(t *testing.T) {
	src := `
void f(void) { once_a(); once_b(); }
void g(void) { once_a(); }
`
	c := build(t, src)
	col := report.NewCollector()
	c.Finish(col, stats.DefaultP0, 2, -100)
	if col.Len() != 0 {
		t.Errorf("single-example pair should not be reported: %d", col.Len())
	}
}

func TestLatentBoostOrdersTies(t *testing.T) {
	src := `
void f1(void) { dev_lock(); dev_unlock(); }
void f2(void) { dev_lock(); dev_unlock(); }
void g1(void) { misc_x(); misc_y(); }
void g2(void) { misc_x(); misc_y(); }
`
	c := build(t, src)
	pairs := c.Derive(stats.DefaultP0)
	// Same evidence; the lock pair should rank first via the boost.
	li, mi := -1, -1
	for i, p := range pairs {
		if p.Key == (Key{"dev_lock", "dev_unlock"}) {
			li = i
		}
		if p.Key == (Key{"misc_x", "misc_y"}) {
			mi = i
		}
	}
	if li == -1 || mi == -1 || li > mi {
		t.Errorf("boost should order lock pair first: lock=%d misc=%d", li, mi)
	}
}

func TestLoopBodiesContribute(t *testing.T) {
	src := `
void f(int n) {
	while (n--) {
		buf_get();
		buf_release();
	}
}
`
	c := build(t, src)
	pairs := c.Derive(stats.DefaultP0)
	if _, ok := findPair(pairs, "buf_get", "buf_release"); !ok {
		t.Errorf("loop-body pair missing: %+v", pairs)
	}
}

func TestCrashPathsNotViolations(t *testing.T) {
	// §5.2: paths that panic never execute past the crash, so the broken
	// pairing on them is not an error.
	src := `
void a1(void) { res_lock(); res_unlock(); }
void a2(void) { res_lock(); res_unlock(); }
void a3(int x) {
	res_lock();
	if (x)
		panic("fatal");
	res_unlock();
}
`
	c := build(t, src)
	pairs := c.Derive(stats.DefaultP0)
	p, ok := findPair(pairs, "res_lock", "res_unlock")
	if !ok {
		t.Fatalf("pair missing: %+v", pairs)
	}
	if p.Errors != 0 {
		t.Errorf("panic path counted as violation: %+v", p)
	}
}
