package fail

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

func TestCheckedUseIsExample(t *testing.T) {
	src := `
void f(void) {
	struct buf *p = kmalloc(10);
	if (p == NULL)
		return;
	p->len = 0;
}
`
	c, col := run(t, src)
	got := c.Counter("kmalloc")
	if got.Checks != 1 || got.Errors != 0 {
		t.Errorf("kmalloc: %+v", got)
	}
	if col.Len() != 0 {
		t.Errorf("no errors expected")
	}
}

func TestUncheckedDerefIsError(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 9; i++ {
		fmt.Fprintf(&sb, `
void f%d(void) {
	struct buf *p = kmalloc(10);
	if (!p)
		return;
	p->len = %d;
}`, i, i)
	}
	sb.WriteString(`
void bad(void) {
	struct buf *p = kmalloc(10);
	p->len = 99;
}`)
	c, col := run(t, sb.String())
	got := c.Counter("kmalloc")
	if got.Checks != 10 || got.Errors != 1 {
		t.Fatalf("kmalloc: %+v", got)
	}
	rs := col.ByChecker("fail")
	if len(rs) != 1 {
		t.Fatalf("reports: %+v", rs)
	}
	if !strings.Contains(rs[0].Message, "kmalloc") || rs[0].Counter.Examples != 9 {
		t.Errorf("report: %+v", rs[0])
	}
}

func TestNeverCheckedNotReported(t *testing.T) {
	// current() never fails in anyone's belief; unchecked use is fine.
	src := `
void f(void) {
	struct task *t = get_current();
	t->state = 1;
}
void g(void) {
	struct task *t = get_current();
	t->state = 2;
}
`
	_, col := run(t, src)
	if col.Len() != 0 {
		t.Errorf("never-checked callee reported: %d", col.Len())
	}
}

func TestInversePrinciple(t *testing.T) {
	src := `
void f(void) {
	struct task *t = get_current();
	t->state = 1;
}
void g(void) {
	struct task *t = get_current();
	t->state = 2;
}
void h(void) {
	struct buf *p = kmalloc(4);
	if (!p)
		return;
	p->len = 1;
}
`
	c, _ := run(t, src)
	inv := c.InverseRanked()
	if len(inv) == 0 || inv[0].Key != "get_current" {
		t.Errorf("inverse ranking should put never-fails first: %+v", inv)
	}
}

func TestAllocBoostInRanking(t *testing.T) {
	src := `
void f(void) {
	struct b *p = dev_alloc(4);
	if (!p) return;
	p->x = 1;
}
void g(void) {
	struct b *q = misc_fn(4);
	if (!q) return;
	q->x = 1;
}
`
	c, _ := run(t, src)
	r := c.Ranked()
	if len(r) != 2 || r[0].Key != "dev_alloc" {
		t.Errorf("alloc boost should win ties: %+v", r)
	}
}

func TestComparisonWithConstIsCheck(t *testing.T) {
	src := `
void f(void) {
	int *fd = open_chan(1);
	if (fd == 0)
		return;
	*fd = 7;
}
`
	c, _ := run(t, src)
	if got := c.Counter("open_chan"); got.Errors != 0 || got.Checks != 1 {
		t.Errorf("const compare counts as check: %+v", got)
	}
}

func TestReassignmentDropsTracking(t *testing.T) {
	src := `
void f(struct b *other) {
	struct b *p = make_buf();
	p = other;
	p->x = 1;
}
`
	c, _ := run(t, src)
	if got := c.Counter("make_buf"); got.Checks != 0 {
		t.Errorf("reassigned result should not count: %+v", got)
	}
}

func TestRankingOrdersEvidence(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&sb, "void a%d(void) { struct b *p = strong_alloc(1); if (!p) return; p->x = 1; }\n", i)
	}
	sb.WriteString("void abad(void) { struct b *p = strong_alloc(1); p->x = 2; }\n")
	for i := 0; i < 2; i++ {
		fmt.Fprintf(&sb, "void w%d(void) { struct b *p = weak_fn(1); if (!p) return; p->x = 1; }\n", i)
	}
	sb.WriteString("void wbad(void) { struct b *p = weak_fn(1); p->x = 2; }\n")
	_, col := run(t, sb.String())
	rs := col.ByChecker("fail")
	if len(rs) != 2 {
		t.Fatalf("reports: %+v", rs)
	}
	if !strings.Contains(rs[0].Message, "strong_alloc") {
		t.Errorf("stronger evidence should rank first: %+v", rs)
	}
}
