package null

import (
	"strings"
	"testing"

	"deviant/internal/cast"
	"deviant/internal/cfg"
	"deviant/internal/cparse"
	"deviant/internal/engine"
	"deviant/internal/latent"
	"deviant/internal/report"
)

// analyze runs the null checker over every function in src and returns the
// ranked reports.
func analyze(t *testing.T, src string, cfgn Config) []report.Report {
	t.Helper()
	f, errs := cparse.ParseSource("t.c", src)
	if len(errs) != 0 {
		t.Fatalf("parse: %v", errs)
	}
	conv := latent.Default()
	ch := New(cfgn)
	col := report.NewCollector()
	for _, d := range f.Decls {
		fd, ok := d.(*cast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		g := cfg.Build(fd, cfg.Options{NoReturn: conv.IsCrashRoutine})
		engine.Run(g, ch, col, engine.Options{Memoize: true})
	}
	ch.Finish(col)
	return col.Ranked()
}

func messages(rs []report.Report) string {
	var parts []string
	for _, r := range rs {
		parts = append(parts, r.Checker+"@"+r.Pos.String()+": "+r.Message)
	}
	return strings.Join(parts, "\n")
}

func countChecker(rs []report.Report, name string) int {
	n := 0
	for _, r := range rs {
		if r.Checker == name {
			n++
		}
	}
	return n
}

func TestPaperCheckThenUse(t *testing.T) {
	// §3.1 first fragment: 2.4.1:drivers/isdn/avmb1/capidrv.c
	src := `
void f(struct capi_ctr *card, int id) {
	if (card == NULL) {
		printk("capidrv-%d: incoming call on unbound id %d!\n",
			card->contrnr, id);
	}
}`
	rs := analyze(t, src, AllChecks())
	if countChecker(rs, "null/check-then-use") != 1 {
		t.Fatalf("want 1 check-then-use:\n%s", messages(rs))
	}
	if !strings.Contains(rs[0].Message, "card") {
		t.Errorf("message: %s", rs[0].Message)
	}
}

func TestPaperUseThenCheck(t *testing.T) {
	// §3.1 second fragment: 2.4.7:drivers/char/mxser.c
	src := `
int mxser_write(struct tty_struct *tty, int from_user) {
	struct mxser_struct *info = tty->driver_data;
	unsigned long flags;

	if (!tty || !info->xmit_buf)
		return 0;
	return 1;
}`
	rs := analyze(t, src, AllChecks())
	if countChecker(rs, "null/use-then-check") != 1 {
		t.Fatalf("want 1 use-then-check:\n%s", messages(rs))
	}
	if !strings.Contains(messages(rs), "tty") {
		t.Errorf("should name tty:\n%s", messages(rs))
	}
}

func TestCleanGuardNoError(t *testing.T) {
	// Correct code: check before use, null path exits.
	src := `
int f(struct s *p) {
	if (p == NULL)
		return -1;
	return p->x;
}`
	rs := analyze(t, src, AllChecks())
	if len(rs) != 0 {
		t.Errorf("clean code flagged:\n%s", messages(rs))
	}
}

func TestCheckThenUseOnFallthroughPath(t *testing.T) {
	// The true branch does not return, so the null path reaches the
	// dereference.
	src := `
int f(struct s *p) {
	if (p == NULL)
		log_warning();
	return p->x;
}`
	rs := analyze(t, src, AllChecks())
	if countChecker(rs, "null/check-then-use") != 1 {
		t.Fatalf("want 1 check-then-use:\n%s", messages(rs))
	}
}

func TestAssignNullThenDeref(t *testing.T) {
	src := `
void f(void) {
	struct s *p = NULL;
	p->x = 1;
}`
	rs := analyze(t, src, AllChecks())
	if countChecker(rs, "null/check-then-use") != 1 {
		t.Fatalf("want 1 check-then-use:\n%s", messages(rs))
	}
	if !strings.Contains(rs[0].Message, "assigned null") {
		t.Errorf("message should note assignment: %s", rs[0].Message)
	}
}

func TestRedundantCheck(t *testing.T) {
	src := `
int f(struct s *p) {
	if (p == NULL)
		return -1;
	if (p == NULL)
		return -2;
	return p->x;
}`
	rs := analyze(t, src, AllChecks())
	if countChecker(rs, "null/redundant-check") != 1 {
		t.Fatalf("want 1 redundant-check:\n%s", messages(rs))
	}
}

func TestRedundantCheckSuppressedWhenPathsDisagree(t *testing.T) {
	// One path knows p, the other does not: not redundant.
	src := `
int f(struct s *p, int flag) {
	if (flag)
		p = get_ptr();
	else
		p = NULL;
	if (p == NULL)
		return -1;
	return 0;
}`
	rs := analyze(t, src, AllChecks())
	if countChecker(rs, "null/redundant-check") != 0 {
		t.Errorf("paths disagree, no redundancy:\n%s", messages(rs))
	}
}

func TestUseThenCheckSuppressedWhenSomePathLacksDeref(t *testing.T) {
	// §6: "this is only an error if no other path leading to the check
	// has the opposite belief".
	src := `
int f(struct tty_struct *tty, int mode) {
	if (mode)
		use(tty->field);
	if (!tty)
		return 0;
	return 1;
}`
	rs := analyze(t, src, AllChecks())
	if countChecker(rs, "null/use-then-check") != 0 {
		t.Errorf("deref only on one path, check is legitimate:\n%s", messages(rs))
	}
}

func TestPanicPathSuppression(t *testing.T) {
	// §6: the panic call makes the null path impossible.
	src := `
void f(struct proc *idle, int cpu) {
	if (!idle)
		panic("no idle process for CPU %d", cpu);
	idle->processor = cpu;
}`
	rs := analyze(t, src, AllChecks())
	if len(rs) != 0 {
		t.Errorf("panic path should be pruned:\n%s", messages(rs))
	}
}

func TestMacroBeliefTruncation(t *testing.T) {
	// A macro that checks its argument internally must not leak the
	// null belief to the caller (§6: macro false positives).
	src := `
#define WARN_IF_NULL(p) if ((p) == NULL) log_warning()
int f(struct s *q) {
	WARN_IF_NULL(q);
	return q->other;
}`
	rs := analyze(t, src, AllChecks())
	if countChecker(rs, "null/check-then-use") != 0 {
		t.Errorf("macro-origin belief leaked:\n%s", messages(rs))
	}

	// Ablation: with TrackMacros the false positive appears, showing the
	// truncation is what suppresses it.
	cfgn := AllChecks()
	cfgn.TrackMacros = true
	rs2 := analyze(t, src, cfgn)
	if countChecker(rs2, "null/check-then-use") == 0 {
		t.Errorf("ablation should reintroduce the macro false positive")
	}
}

func TestReassignmentClearsBelief(t *testing.T) {
	src := `
int f(struct s *p) {
	if (p == NULL) {
		p = fallback();
		if (p == NULL)
			return -1;
	}
	return p->x;
}`
	rs := analyze(t, src, AllChecks())
	if len(rs) != 0 {
		t.Errorf("reassignment resets belief:\n%s", messages(rs))
	}
}

func TestAddressEscapeClearsBelief(t *testing.T) {
	src := `
int f(struct s *p) {
	if (p == NULL)
		refill(&p);
	return p->x;
}`
	rs := analyze(t, src, AllChecks())
	if countChecker(rs, "null/check-then-use") != 0 {
		t.Errorf("&p escape should clear belief:\n%s", messages(rs))
	}
}

func TestBareTruthTest(t *testing.T) {
	src := `
int f(struct s *p) {
	if (!p)
		return -1;
	return p->x;
}`
	rs := analyze(t, src, AllChecks())
	if len(rs) != 0 {
		t.Errorf("clean truth-test guard flagged:\n%s", messages(rs))
	}
}

func TestMemberChainSlots(t *testing.T) {
	// Beliefs attach to member chains too: tty->link checked null then
	// dereferenced.
	src := `
void f(struct tty_struct *tty) {
	if (tty->link == NULL) {
		tty->link->count = 0;
	}
}`
	rs := analyze(t, src, AllChecks())
	if countChecker(rs, "null/check-then-use") != 1 {
		t.Fatalf("member chain not tracked:\n%s", messages(rs))
	}
}

func TestUseThenCheckCutAndPasteIdiom(t *testing.T) {
	// §6.1: "a dereference of a pointer in an initializer followed by a
	// subsequent null check ... cut-and-paste into twenty locations".
	src := `
int a(struct tty_struct *tty) {
	struct mx *info = tty->driver_data;
	if (!tty)
		return 0;
	return 1;
}
int b(struct tty_struct *tty) {
	struct mx *info = tty->driver_data;
	if (!tty)
		return 0;
	return 1;
}`
	rs := analyze(t, src, AllChecks())
	if countChecker(rs, "null/use-then-check") != 2 {
		t.Fatalf("want 2 use-then-check (one per copy):\n%s", messages(rs))
	}
}

func TestSpanThresholdSuppressesDistantChecks(t *testing.T) {
	// A re-check far from the first is defensive programming (§6).
	var sb strings.Builder
	sb.WriteString("int f(struct s *p) {\n")
	sb.WriteString("\tif (p == NULL) return -1;\n")
	for i := 0; i < 20; i++ {
		sb.WriteString("\twork();\n")
	}
	sb.WriteString("\tif (p == NULL) return -2;\n")
	sb.WriteString("\treturn p->x;\n}\n")
	rs := analyze(t, sb.String(), AllChecks())
	if countChecker(rs, "null/redundant-check") != 0 {
		t.Errorf("distant check should be suppressed:\n%s", messages(rs))
	}
}

func TestConfigDisablesSubCheckers(t *testing.T) {
	src := `
void f(struct s *p) {
	if (p == NULL)
		use(p->x);
}`
	rs := analyze(t, src, Config{UseThenCheck: true, RedundantCheck: true})
	if countChecker(rs, "null/check-then-use") != 0 {
		t.Errorf("disabled checker fired:\n%s", messages(rs))
	}
}

func TestNotEqualShape(t *testing.T) {
	src := `
int f(struct s *p) {
	if (p != NULL)
		return p->x;
	return p->y;
}`
	rs := analyze(t, src, AllChecks())
	if countChecker(rs, "null/check-then-use") != 1 {
		t.Fatalf("p->y on the null path:\n%s", messages(rs))
	}
	if rs[0].Pos.Line != 5 {
		t.Errorf("error should be at the p->y dereference (line 5):\n%s", messages(rs))
	}
}

func TestNullOnLeftSide(t *testing.T) {
	src := `
int f(struct s *p) {
	if (NULL == p)
		return p->x;
	return 0;
}`
	rs := analyze(t, src, AllChecks())
	if countChecker(rs, "null/check-then-use") != 1 {
		t.Fatalf("NULL == p shape missed:\n%s", messages(rs))
	}
}

func TestLoopListWalkClean(t *testing.T) {
	src := `
void f(struct node *list) {
	struct node *p;
	for (p = list; p; p = p->next)
		visit(p->data);
}`
	rs := analyze(t, src, AllChecks())
	if len(rs) != 0 {
		t.Errorf("list walk flagged:\n%s", messages(rs))
	}
}

func TestResetClearsObservations(t *testing.T) {
	ch := New(AllChecks())
	ch.Fold(Partial{obs: []checkObservation{{site: "x"}}})
	ch.Reset()
	if len(ch.obs) != 0 || len(ch.obsIdx) != 0 {
		t.Error("reset failed")
	}
}

func TestTernaryGuardClean(t *testing.T) {
	// "p ? p->x : 0" — the dereference happens only on the non-null arm.
	src := `
int f(struct s *p) {
	int v;
	v = p ? p->x : 0;
	return v;
}`
	rs := analyze(t, src, AllChecks())
	if len(rs) != 0 {
		t.Errorf("guarded ternary flagged:\n%s", messages(rs))
	}
}

func TestTernaryInvertedArmsBug(t *testing.T) {
	// "p ? 0 : p->x" dereferences on the null arm: a real bug.
	src := `
int f(struct s *p) {
	int v;
	v = p ? 0 : p->x;
	return v;
}`
	rs := analyze(t, src, AllChecks())
	if countChecker(rs, "null/check-then-use") != 1 {
		t.Errorf("null-arm dereference missed:\n%s", messages(rs))
	}
}

func TestTernaryReturnGuardClean(t *testing.T) {
	src := `
int f(struct s *p) {
	return p ? p->x : -1;
}`
	rs := analyze(t, src, AllChecks())
	if len(rs) != 0 {
		t.Errorf("guarded ternary return flagged:\n%s", messages(rs))
	}
}

func TestGotoErrorPathIdiom(t *testing.T) {
	// The classic kernel error-path idiom must stay clean.
	src := `
int f(struct s *p) {
	int ret = -1;
	if (p == NULL)
		goto out;
	ret = p->x;
out:
	return ret;
}`
	rs := analyze(t, src, AllChecks())
	if len(rs) != 0 {
		t.Errorf("goto error path flagged:\n%s", messages(rs))
	}
}

func TestGotoIntoDerefIsBug(t *testing.T) {
	// Jumping to a label that dereferences while null is a bug.
	src := `
int f(struct s *p) {
	if (p == NULL)
		goto use;
	return 0;
use:
	return p->x;
}`
	rs := analyze(t, src, AllChecks())
	if countChecker(rs, "null/check-then-use") != 1 {
		t.Errorf("goto-reached deref missed:\n%s", messages(rs))
	}
}

func TestWhileNotNullLoop(t *testing.T) {
	src := `
void f(struct node *p) {
	while (p != NULL) {
		visit(p->v);
		p = p->next;
	}
}`
	rs := analyze(t, src, AllChecks())
	if len(rs) != 0 {
		t.Errorf("while-not-null loop flagged:\n%s", messages(rs))
	}
}

func TestIntegersNotTracked(t *testing.T) {
	// Repeated checks of a plain int are not "redundant pointer checks".
	src := `
int f(int n) {
	if (n == 0)
		return 1;
	if (n == 0)
		return 2;
	return 0;
}`
	rs := analyze(t, src, AllChecks())
	if len(rs) != 0 {
		t.Errorf("integer checks tracked as pointers:\n%s", messages(rs))
	}
}

func TestDoWhileGuard(t *testing.T) {
	src := `
void f(struct s *p) {
	if (!p)
		return;
	do {
		consume(p->x);
		p = p->next;
	} while (p);
}`
	rs := analyze(t, src, AllChecks())
	if len(rs) != 0 {
		t.Errorf("do-while walk flagged:\n%s", messages(rs))
	}
}
