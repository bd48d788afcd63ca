package intr

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

func TestDisabledCallsCounted(t *testing.T) {
	src := `
void f(void) {
	cli();
	touch_hw();
	sti();
}
`
	c, _ := run(t, src)
	got := c.Counter("touch_hw")
	if got.Checks != 1 || got.Errors != 0 {
		t.Errorf("touch_hw: %+v", got)
	}
}

func TestEnabledCallFlagged(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 9; i++ {
		fmt.Fprintf(&sb, "void f%d(void) { cli(); touch_hw(); sti(); }\n", i)
	}
	sb.WriteString("void bad(void) { touch_hw(); }\n")
	c, col := run(t, sb.String())
	got := c.Counter("touch_hw")
	if got.Checks != 10 || got.Errors != 1 {
		t.Fatalf("touch_hw: %+v", got)
	}
	rs := col.ByChecker("intr")
	if len(rs) != 1 {
		t.Fatalf("reports: %+v", rs)
	}
	if !strings.Contains(rs[0].Message, "interrupts enabled") {
		t.Errorf("message: %s", rs[0].Message)
	}
}

func TestBackwardPropagationFromEnable(t *testing.T) {
	// restore_flags first implies interrupts were disabled at entry.
	src := `
void f(void) {
	touch_hw();
	restore_flags();
}
`
	c, _ := run(t, src)
	got := c.Counter("touch_hw")
	if got.Checks != 1 || got.Errors != 0 {
		t.Errorf("entry-disabled inference: %+v", got)
	}
}

func TestInverseRanking(t *testing.T) {
	src := `
void f(void) { might_sleep_fn(); }
void g(void) { might_sleep_fn(); }
void h(void) { cli(); hw_op(); sti(); }
`
	c, _ := run(t, src)
	inv := c.InverseRanked()
	if len(inv) == 0 || inv[0].Key != "might_sleep_fn" {
		t.Errorf("inverse should rank always-enabled first: %+v", inv)
	}
}

func TestNeverDisabledNotReported(t *testing.T) {
	src := `
void f(void) { helper(); }
void g(void) { helper(); }
`
	_, col := run(t, src)
	if col.Len() != 0 {
		t.Errorf("no evidence of a discipline: %d reports", col.Len())
	}
}

func TestBranchesKeepFlag(t *testing.T) {
	src := `
void f(int x) {
	cli();
	if (x)
		hw_a();
	else
		hw_b();
	sti();
}
`
	c, _ := run(t, src)
	if got := c.Counter("hw_a"); got.Errors != 0 || got.Checks != 1 {
		t.Errorf("hw_a: %+v", got)
	}
	if got := c.Counter("hw_b"); got.Errors != 0 || got.Checks != 1 {
		t.Errorf("hw_b: %+v", got)
	}
}
