package seccheck

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
	c := New(nil)
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

func TestGuardedCallCounted(t *testing.T) {
	src := `
int f(void) {
	if (!capable(21))
		return -1;
	set_port_state(1);
	return 0;
}
`
	c, col := run(t, src)
	got := c.Counter("set_port_state", "capable")
	if got.Checks == 0 || got.Errors != 0 {
		t.Errorf("counter: %+v", got)
	}
	if col.Len() != 0 {
		t.Errorf("clean code flagged: %d", col.Len())
	}
}

func TestUnguardedCallFlagged(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 9; i++ {
		fmt.Fprintf(&sb, `
int f%d(void) {
	if (!capable(21))
		return -1;
	set_port_state(%d);
	return 0;
}`, i, i)
	}
	sb.WriteString(`
int bad(void) {
	set_port_state(9);
	return 0;
}`)
	c, col := run(t, sb.String())
	got := c.Counter("set_port_state", "capable")
	if got.Checks != 10 || got.Errors != 1 {
		t.Fatalf("counter: %+v", got)
	}
	rs := col.ByChecker("seccheck")
	if len(rs) != 1 {
		t.Fatalf("reports: %+v", rs)
	}
	if !strings.Contains(rs[0].Message, "capable") {
		t.Errorf("message: %s", rs[0].Message)
	}
}

func TestNeverGuardedSilent(t *testing.T) {
	src := `
void a(void) { helper(); }
void b(void) { helper(); if (!capable(1)) return; privileged(); }
`
	_, col := run(t, src)
	for _, r := range col.ByChecker("seccheck") {
		if strings.Contains(r.Message, "helper") {
			t.Errorf("helper is never guarded, must stay silent: %+v", r)
		}
	}
}

func TestSuserIdiom(t *testing.T) {
	src := `
int f(void) {
	if (suser()) {
		write_rom(1);
	}
	return 0;
}
`
	c, _ := run(t, src)
	if got := c.Counter("write_rom", "suser"); got.Checks != 1 || got.Errors != 0 {
		t.Errorf("suser idiom: %+v", got)
	}
}

func TestRankedTable(t *testing.T) {
	src := `
int f(void) {
	if (!capable(1)) return -1;
	sensitive_op();
	return 0;
}
int g(void) {
	sensitive_op();
	return 0;
}
`
	c, _ := run(t, src)
	r := c.Ranked()
	found := false
	for _, d := range r {
		if d.Key == (Key{"sensitive_op", "capable"}) {
			found = true
			if d.Checks != 2 || d.Errors != 1 {
				t.Errorf("evidence: %+v", d)
			}
		}
	}
	if !found {
		t.Errorf("missing instance: %+v", r)
	}
}

func TestGuardedInsideLoop(t *testing.T) {
	src := `
int f(int n) {
	int i;
	if (!capable(21))
		return -1;
	for (i = 0; i < n; i++)
		set_port_state(i);
	return 0;
}
`
	c, col := run(t, src)
	got := c.Counter("set_port_state", "capable")
	if got.Errors != 0 {
		t.Errorf("loop body loses domination: %+v", got)
	}
	if col.Len() != 0 {
		t.Errorf("clean loop flagged")
	}
}

func TestCheckOnOneBranchOnly(t *testing.T) {
	// The unchecked else-branch call counts as an error candidate.
	src := `
int f(int privileged) {
	if (privileged) {
		if (!capable(21))
			return -1;
		set_port_state(1);
	} else {
		set_port_state(2);
	}
	return 0;
}
`
	c, _ := run(t, src)
	got := c.Counter("set_port_state", "capable")
	if got.Checks != 2 || got.Errors != 1 {
		t.Errorf("branch sensitivity: %+v", got)
	}
}
