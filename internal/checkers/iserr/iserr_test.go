package iserr

import (
	"fmt"
	"strings"
	"testing"

	"deviant/internal/cast"
	"deviant/internal/cfg"
	"deviant/internal/cparse"
	"deviant/internal/engine"
	"deviant/internal/latent"
	"deviant/internal/report"
)

func run(t *testing.T, src string) (*Checker, *report.Collector) {
	t.Helper()
	f, errs := cparse.ParseSource("t.c", src)
	if len(errs) != 0 {
		t.Fatalf("parse: %v", errs)
	}
	conv := latent.Default()
	c := New(conv)
	col := report.NewCollector()
	for _, d := range f.Decls {
		if fd, ok := d.(*cast.FuncDecl); ok && fd.Body != nil {
			g := cfg.Build(fd, cfg.Options{NoReturn: conv.IsCrashRoutine})
			engine.Run(g, c, col, engine.Options{Memoize: true})
		}
	}
	c.Finish(col)
	return c, col
}

func TestConsistentIsErrNoReports(t *testing.T) {
	src := `
void f(void) {
	struct dentry *d = lookup_one(1);
	if (IS_ERR(d))
		return;
	use(d);
}
`
	_, col := run(t, src)
	if col.Len() != 0 {
		t.Errorf("consistent usage flagged: %d", col.Len())
	}
}

func TestNullCheckOnIsErrRoutineFlagged(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&sb, `
void f%d(void) {
	struct dentry *d = lookup_one(%d);
	if (IS_ERR(d))
		return;
	use(d);
}`, i, i)
	}
	// The deviant caller tests against null: misses ERR_PTR values.
	sb.WriteString(`
void bad(void) {
	struct dentry *d = lookup_one(9);
	if (d == NULL)
		return;
	use(d);
}`)
	c, col := run(t, sb.String())
	rs := col.ByChecker("iserr")
	if len(rs) != 1 {
		t.Fatalf("reports: %d (%+v)", len(rs), c.Ranked())
	}
	if !strings.Contains(rs[0].Message, "IS_ERR") || !strings.Contains(rs[0].Message, "lookup_one") {
		t.Errorf("message: %s", rs[0].Message)
	}
}

func TestUncheckedUseOfIsErrRoutineFlagged(t *testing.T) {
	src := `
void a(void) {
	struct inode *i = open_node(1);
	if (IS_ERR(i))
		return;
	use(i);
}
void b(void) {
	struct inode *i = open_node(2);
	if (IS_ERR(i))
		return;
	use(i);
}
void bad(void) {
	struct inode *i = open_node(3);
	i->count = 1;
}
`
	c, col := run(t, src)
	rs := col.ByChecker("iserr")
	if len(rs) != 1 {
		t.Fatalf("reports: %d (%+v)", len(rs), c.Ranked())
	}
	if rs[0].Pos.Line != 16 {
		t.Errorf("site should be the unchecked i->count deref: %v", rs[0].Pos)
	}
}

func TestSpuriousIsErrFlagged(t *testing.T) {
	// Majority treats make_buf as a plain pointer; the IS_ERR caller is
	// the deviant (inverse direction: "must never use IS_ERR").
	var sb strings.Builder
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&sb, `
void f%d(void) {
	struct buf *p = make_buf(%d);
	if (p == NULL)
		return;
	use(p);
}`, i, i)
	}
	sb.WriteString(`
void odd(void) {
	struct buf *p = make_buf(7);
	if (IS_ERR(p))
		return;
	use(p);
}`)
	_, col := run(t, sb.String())
	rs := col.ByChecker("iserr")
	if len(rs) != 1 {
		t.Fatalf("reports: %d", len(rs))
	}
	if !strings.Contains(rs[0].Message, "never") && !strings.Contains(rs[0].Rule, "never") {
		t.Errorf("should flag the spurious IS_ERR: %+v", rs[0])
	}
}

func TestRankedEvidence(t *testing.T) {
	src := `
void a(void) {
	struct d *x = fn_a(1);
	if (IS_ERR(x)) return;
	use(x);
}
void b(void) {
	struct d *x = fn_a(2);
	x->f = 1;
}
`
	c, _ := run(t, src)
	r := c.Ranked()
	if len(r) != 1 || r[0].Key != "fn_a" {
		t.Fatalf("ranked: %+v", r)
	}
	// A tie counts for IS_ERR: one IS_ERR check (the example) against one
	// other use (the error).
	if r[0].Checks != 2 || r[0].Errors != 1 || !r[0].MustUseIsErr {
		t.Errorf("counts: %+v", r[0])
	}
}

func TestPassingResolvesAsOther(t *testing.T) {
	src := `
void a(void) {
	struct d *x = fn_b(1);
	if (IS_ERR(x)) return;
	use(x);
}
void b(void) {
	struct d *x = fn_b(2);
	consume(x);
}
`
	c, _ := run(t, src)
	r := c.Ranked()
	if len(r) != 1 || r[0].Checks != 2 || r[0].Errors != 1 || !r[0].MustUseIsErr {
		t.Errorf("passing should resolve as other: %+v", r)
	}
}

func TestReturnResolvesAsOther(t *testing.T) {
	src := `
struct d *wrap(void) {
	struct d *x = fn_c(1);
	return x;
}
void a(void) {
	struct d *x = fn_c(2);
	if (IS_ERR(x)) return;
	use(x);
}
`
	c, _ := run(t, src)
	r := c.Ranked()
	if len(r) != 1 || r[0].Checks != 2 || r[0].Errors != 1 || !r[0].MustUseIsErr {
		t.Errorf("return should resolve as other: %+v", r)
	}
}

func TestPtrErrNotAUse(t *testing.T) {
	// Extracting the error code with PTR_ERR is part of the discipline,
	// not an unchecked use.
	src := `
int a(void) {
	struct d *x = fn_d(1);
	if (IS_ERR(x))
		return PTR_ERR(x);
	use(x);
	return 0;
}
int b(void) {
	struct d *x = fn_d(2);
	if (IS_ERR(x))
		return PTR_ERR(x);
	use(x);
	return 0;
}
`
	c, col := run(t, src)
	if col.Len() != 0 {
		t.Errorf("PTR_ERR flagged: %+v (ranked %+v)", col.Ranked(), c.Ranked())
	}
}

func TestReassignmentDropsIsErrTracking(t *testing.T) {
	src := `
void a(void) {
	struct d *x = fn_e(1);
	x = other();
	x->f = 1;
}
void b(void) {
	struct d *x = fn_e(2);
	if (IS_ERR(x)) return;
	use(x);
}
`
	c, col := run(t, src)
	rs := col.ByChecker("iserr")
	if len(rs) != 0 {
		t.Errorf("reassigned result flagged: %+v (%+v)", rs, c.Ranked())
	}
}
