package reverse

import (
	"fmt"
	"strings"
	"testing"

	"deviant/internal/cast"
	"deviant/internal/cfg"
	"deviant/internal/checkers/pairing"
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

func find(revs []Reversal, fwd, undo string) (Reversal, bool) {
	for _, r := range revs {
		if r.Key == (pairing.Key{A: fwd, B: undo}) {
			return r, true
		}
	}
	return Reversal{}, false
}

func TestErrorPathRecognition(t *testing.T) {
	c := build(t, `
int f(int x) {
	setup_dev();
	if (x < 0)
		return -1;
	return 0;
}
`)
	if got := c.PathCount(); got != 1 {
		t.Errorf("error paths: %d", got)
	}
}

func TestErrnoStyleReturn(t *testing.T) {
	c := build(t, `
int f(int x) {
	setup_dev();
	if (x < 0)
		return -EINVAL;
	return 0;
}
`)
	if got := c.PathCount(); got != 1 {
		t.Errorf("-EINVAL path not recognized: %d", got)
	}
}

func TestDeriveReversal(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&sb, `
int f%d(int x) {
	buf_alloc(%d);
	if (x < 0) {
		buf_free(%d);
		return -1;
	}
	return 0;
}`, i, i, i)
	}
	// The deviant error path forgets the cleanup.
	sb.WriteString(`
int leak(int x) {
	buf_alloc(9);
	if (x < 0)
		return -1;
	return 0;
}`)
	c := build(t, sb.String())
	revs := c.Derive(stats.DefaultP0)
	r, ok := find(revs, "buf_alloc", "buf_free")
	if !ok {
		t.Fatalf("reversal not derived: %+v", revs)
	}
	if r.Checks != 7 || r.Errors != 1 {
		t.Errorf("counts: %+v", r)
	}
	if r.Boost <= 0 {
		t.Errorf("alloc/free should get the latent boost: %+v", r)
	}

	col := report.NewCollector()
	c.Finish(col, stats.DefaultP0, 2, 0)
	rs := col.ByChecker("reverse")
	if len(rs) != 1 {
		t.Fatalf("reports: %+v", rs)
	}
	if !strings.Contains(rs[0].Message, "buf_free") {
		t.Errorf("message: %s", rs[0].Message)
	}
}

func TestSuccessPathsNotCounted(t *testing.T) {
	// The success path does not free (ownership transfers): that is not
	// an error-path violation.
	c := build(t, `
int f(int x) {
	buf_alloc(1);
	if (x < 0) {
		buf_free(1);
		return -1;
	}
	register_buf();
	return 0;
}
`)
	revs := c.Derive(stats.DefaultP0)
	if r, ok := find(revs, "buf_alloc", "buf_free"); !ok || r.Errors != 0 {
		t.Errorf("success path wrongly counted: %+v", revs)
	}
}

func TestNoErrorPathsNoCandidates(t *testing.T) {
	c := build(t, `
int f(void) {
	open_dev();
	close_dev();
	return 0;
}
`)
	if len(c.Derive(stats.DefaultP0)) != 0 {
		t.Errorf("no error paths, no candidates: %+v", c.Derive(stats.DefaultP0))
	}
}
