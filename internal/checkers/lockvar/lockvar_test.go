package lockvar

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"deviant/internal/cast"
	"deviant/internal/cfg"
	"deviant/internal/corpus"
	"deviant/internal/cparse"
	"deviant/internal/cpp"
	"deviant/internal/csem"
	"deviant/internal/engine"
	"deviant/internal/latent"
	"deviant/internal/report"
	"deviant/internal/stats"
)

// figure1 is the paper's contrived lock example (Figure 1), verbatim in
// structure.
const figure1 = `
typedef int lock_t;
lock_t l;
int a, b;
void foo(void) {
	lock(l);
	a = a + b;
	unlock(l);
	b = b + 1;
}
void bar(void) {
	lock(l);
	a = a + 1;
	unlock(l);
}
void baz(void) {
	a = a + 1;
	unlock(l);
	b = b - 1;
	a = a / 5;
}
`

func run(t *testing.T, src string) (*Checker, *report.Collector) {
	t.Helper()
	f, errs := cparse.ParseSource("t.c", src)
	if len(errs) != 0 {
		t.Fatalf("parse: %v", errs)
	}
	return runFiles([]*cast.File{f})
}

// runTree preprocesses and parses every translation unit of a generated
// tree, then runs the checker over the whole program.
func runTree(t *testing.T, c *corpus.Corpus) (*Checker, *report.Collector) {
	t.Helper()
	files := make([]*cast.File, 0, len(c.Units))
	for _, u := range c.Units {
		toks, err := cpp.New(cpp.MapFS(c.Files), "include").ProcessBytes(u, []byte(c.Files[u]))
		if err != nil {
			t.Fatalf("preprocess %s: %v", u, err)
		}
		f, errs := cparse.ParseFile(u, toks)
		if len(errs) != 0 {
			t.Fatalf("parse %s: %v", u, errs)
		}
		files = append(files, f)
	}
	return runFiles(files)
}

func runFiles(files []*cast.File) (*Checker, *report.Collector) {
	prog := csem.Analyze(files)
	conv := latent.Default()
	c := New(prog, conv)
	col := report.NewCollector()
	for _, name := range prog.FuncNames() {
		fd := prog.Funcs[name]
		g := cfg.Build(fd, cfg.Options{NoReturn: conv.IsCrashRoutine})
		engine.Run(g, c, col, engine.Options{Memoize: true})
	}
	c.Finish(col)
	return c, col
}

func TestFigure1Counts(t *testing.T) {
	c, _ := run(t, figure1)
	// Paper §3.4: "(a, l) has four check messages ... and one error";
	// "(b, l) has three check messages ... and two errors".
	a := c.Counter("a", "l")
	if a.Checks != 4 || a.Errors != 1 {
		t.Errorf("(a,l): got %d checks %d errors, want 4/1 (bindings: %+v)",
			a.Checks, a.Errors, c.Bindings())
	}
	b := c.Counter("b", "l")
	if b.Checks != 3 || b.Errors != 2 {
		t.Errorf("(b,l): got %d checks %d errors, want 3/2", b.Checks, b.Errors)
	}
}

func TestFigure1Ranking(t *testing.T) {
	c, _ := run(t, figure1)
	bs := c.Bindings()
	if len(bs) < 2 {
		t.Fatalf("bindings: %+v", bs)
	}
	if bs[0].Key != (Key{"a", "l"}) {
		t.Errorf("(a,l) should rank above (b,l): %+v", bs)
	}
	if bs[0].Z <= bs[1].Z {
		t.Errorf("z order: %+v", bs)
	}
}

func TestFigure1ErrorReports(t *testing.T) {
	_, col := run(t, figure1)
	rs := col.ByChecker("lockvar")
	// Errors at: a/5 (line 20), b+1 (line 9), b-1 (line 19). All three
	// reported; the (a,l) one ranks above the (b,l) ones.
	if len(rs) != 3 {
		t.Fatalf("reports: %d\n%+v", len(rs), rs)
	}
	joined := ""
	for _, r := range rs {
		joined += r.Message + "\n"
	}
	if !strings.Contains(joined, "a accessed without l held") {
		t.Errorf("missing a error:\n%s", joined)
	}
	if !strings.Contains(joined, "b accessed without l held") {
		t.Errorf("missing b error:\n%s", joined)
	}
}

func TestSingleVarPromotion(t *testing.T) {
	// bar() is a critical section whose only shared access is a: the
	// (a, l) belief is promoted to MUST (§5).
	c, col := run(t, figure1)
	var promoted bool
	for _, b := range c.Bindings() {
		if b.Key == (Key{"a", "l"}) && b.Must {
			promoted = true
		}
	}
	if !promoted {
		t.Fatalf("(a,l) should be promoted: %+v", c.Bindings())
	}
	// Promotion upgrades (a,l) violations to MUST reports, which outrank
	// all statistical ones.
	rs := col.ByChecker("lockvar")
	if rs[0].Statistical() || !strings.Contains(rs[0].Message, "a accessed") {
		t.Errorf("top report should be the promoted MUST error: %+v", rs[0])
	}
}

func TestBackwardPropagationFromUnlock(t *testing.T) {
	// baz() starts with an access then unlock: the unlock implies l was
	// held at entry, so the first access is protected.
	src := `
typedef int lock_t;
lock_t l;
int v;
void f(void) {
	v = v + 1;
	unlock(l);
}
`
	c, _ := run(t, src)
	got := c.Counter("v", "l")
	if got.Checks != 1 || got.Errors != 0 {
		t.Errorf("(v,l): %+v — entry-held inference failed", got)
	}
}

func TestPerStatementDeduplication(t *testing.T) {
	// "v = v + v * v" accesses v several times but is one check.
	src := `
typedef int lock_t;
lock_t l;
int v;
void f(void) {
	lock(l);
	v = v + v * v;
	unlock(l);
}
`
	c, _ := run(t, src)
	if got := c.Counter("v", "l"); got.Checks != 1 {
		t.Errorf("(v,l) checks: %d, want 1", got.Checks)
	}
}

func TestLocalsNotCounted(t *testing.T) {
	src := `
typedef int lock_t;
lock_t l;
int shared;
void f(void) {
	int local;
	lock(l);
	local = 1;
	shared = local;
	unlock(l);
}
`
	c, _ := run(t, src)
	if got := c.Counter("local", "l"); got.Checks != 0 {
		t.Errorf("locals must not be counted: %+v", got)
	}
	if got := c.Counter("shared", "l"); got.Checks != 1 {
		t.Errorf("shared: %+v", got)
	}
}

func TestSpinLockStyleWithAddressArg(t *testing.T) {
	src := `
struct spinlock { int raw; };
struct spinlock dev_lock;
int count;
void f(void) {
	spin_lock(&dev_lock);
	count = count + 1;
	spin_unlock(&dev_lock);
}
void g(void) {
	count = count - 1;
}
`
	c, col := run(t, src)
	got := c.Counter("count", "dev_lock")
	if got.Checks != 2 || got.Errors != 1 {
		t.Errorf("(count,dev_lock): %+v", got)
	}
	rs := col.ByChecker("lockvar")
	if len(rs) != 1 {
		t.Fatalf("reports: %+v", rs)
	}
	if rs[0].Pos.Line != 11 {
		t.Errorf("error should be at line 11 (g's access): %v", rs[0].Pos)
	}
}

func TestNoLockNoNoise(t *testing.T) {
	src := `
int x;
void f(void) { x = 1; }
void g(void) { x = 2; }
`
	c, col := run(t, src)
	if len(c.Bindings()) != 0 {
		t.Errorf("no locks, no bindings: %+v", c.Bindings())
	}
	if col.Len() != 0 {
		t.Errorf("no reports expected")
	}
}

func TestNeverProtectedPairSuppressed(t *testing.T) {
	// u is never accessed with the lock held: a coincidence, not a
	// protocol; no reports for it.
	src := `
typedef int lock_t;
lock_t l;
int p, u;
void f(void) {
	lock(l);
	p = 1;
	unlock(l);
	u = 1;
}
void g(void) {
	u = 2;
}
`
	_, col := run(t, src)
	for _, r := range col.ByChecker("lockvar") {
		if strings.Contains(r.Message, "u accessed") {
			t.Errorf("never-protected pair reported: %+v", r)
		}
	}
}

func TestSpuriousLocks(t *testing.T) {
	// dead guards an empty section; quiet guards only a local. Neither
	// is ever held around a shared access, so neither has a binding —
	// and a lock with no binding is spurious.
	src := `
typedef int lock_t;
lock_t l, dead, quiet;
int v;
void f(void) {
	lock(l);
	v = v + 1;
	unlock(l);
	lock(dead);
	unlock(dead);
}
int g(int n) {
	int tmp;
	lock(quiet);
	tmp = n * 2;
	unlock(quiet);
	return tmp;
}
`
	c, _ := run(t, src)
	spurious := c.SpuriousLocks(0)
	if !slices.Equal(spurious, []string{"dead", "quiet"}) {
		t.Errorf("spurious = %v, want [dead quiet]: l protects v, dead and quiet protect nothing shared", spurious)
	}
	for _, b := range c.Bindings() {
		if b.Key.Lock != "l" {
			t.Errorf("binding for a lock never held around shared data: %+v", b)
		}
	}
}

// denseBindings is the reference enumeration: every accessed variable
// against every lock of the universe, filtered to the pairs with an
// example, in Bindings' order (z descending, ties in compareKeys order).
func denseBindings(c *Checker) (filtered []Binding, all int) {
	locks := make([]string, 0, len(c.locks))
	for l := range c.locks {
		locks = append(locks, l)
	}
	sort.Strings(locks)
	for v, n := range c.accesses {
		for _, l := range locks {
			all++
			k := Key{v, l}
			cnt := stats.Counter{Checks: n, Errors: n - c.heldAt[k]}
			if cnt.Examples() == 0 {
				continue
			}
			filtered = append(filtered, Binding{
				Instance: stats.Instance[Key]{Key: k, Counter: cnt, Z: cnt.Z(c.p0)},
				Must:     c.must[k]})
		}
	}
	sort.Slice(filtered, func(i, j int) bool {
		a, b := filtered[i], filtered[j]
		if a.Z != b.Z {
			return a.Z > b.Z
		}
		return compareKeys(a.Key, b.Key) < 0
	})
	return filtered, all
}

// TestBindingsMatchDenseReference pins the sparse enumeration against
// the full variable × lock cross product filtered to evidence-bearing
// pairs: same pairs, counters, z, Must flags and order.
func TestBindingsMatchDenseReference(t *testing.T) {
	fig, _ := run(t, figure1)
	tree, _ := runTree(t, corpus.Generate(corpus.Linux247()))
	for name, c := range map[string]*Checker{"figure1": fig, "linux247": tree} {
		want, all := denseBindings(c)
		got := c.Bindings()
		if len(want) == 0 {
			t.Fatalf("%s: reference has no bindings", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sparse bindings differ from the dense reference\ngot  %d: %+v\nwant %d: %+v",
				name, len(got), got, len(want), want)
		}
		t.Logf("%s: %d bindings of %d candidate pairs", name, len(got), all)
	}
}

func TestLockKernelStyleNoArgs(t *testing.T) {
	src := `
int jiffies_state;
void f(void) {
	lock_kernel();
	jiffies_state = 1;
	unlock_kernel();
}
void g(void) {
	jiffies_state = 2;
}
`
	c, _ := run(t, src)
	got := c.Counter("jiffies_state", "lock_kernel")
	if got.Checks != 2 || got.Errors != 1 {
		t.Errorf("argless lock: %+v (bindings %+v)", got, c.Bindings())
	}
}

func TestDoubleLockDetected(t *testing.T) {
	src := `
typedef int lock_t;
lock_t l;
int v;
void f(void) {
	lock(l);
	lock(l);
	v = 1;
	unlock(l);
}
`
	_, col := run(t, src)
	rs := col.ByChecker("lockvar/double-lock")
	if len(rs) != 1 {
		t.Fatalf("double-lock reports: %+v", col.Ranked())
	}
	if rs[0].Pos.Line != 7 {
		t.Errorf("site: %v", rs[0].Pos)
	}
}

func TestDoubleUnlockDetected(t *testing.T) {
	src := `
typedef int lock_t;
lock_t l;
int v;
void f(void) {
	lock(l);
	v = 1;
	unlock(l);
	unlock(l);
}
`
	_, col := run(t, src)
	rs := col.ByChecker("lockvar/double-unlock")
	if len(rs) != 1 {
		t.Fatalf("double-unlock reports: %+v", col.Ranked())
	}
}

func TestConditionalDoubleLockOnOnePath(t *testing.T) {
	// Only the x-true path double-acquires.
	src := `
typedef int lock_t;
lock_t l;
int v;
void f(int x) {
	if (x)
		lock(l);
	lock(l);
	v = 1;
	unlock(l);
}
`
	_, col := run(t, src)
	if len(col.ByChecker("lockvar/double-lock")) != 1 {
		t.Fatalf("path-sensitive double-lock: %+v", col.Ranked())
	}
}

func TestBalancedLockingNoDoubleReports(t *testing.T) {
	_, col := run(t, figure1)
	if n := len(col.ByChecker("lockvar/double-lock")) + len(col.ByChecker("lockvar/double-unlock")); n != 0 {
		t.Errorf("figure 1 is balanced, got %d double reports", n)
	}
}

func TestMemberLockProtectsMemberState(t *testing.T) {
	// Real kernels lock through struct members: dev.lock protects
	// dev.count. The lock operand itself must not count as a data
	// access.
	src := `
struct devstate { struct spinlock lock; int count; };
struct devstate dev;
void f(int d) {
	spin_lock(&dev.lock);
	dev.count = dev.count + d;
	spin_unlock(&dev.lock);
}
void g(void) {
	dev.count = 0;
}
`
	c, col := run(t, src)
	got := c.Counter("dev.count", "dev.lock")
	if got.Checks != 2 || got.Errors != 1 {
		t.Fatalf("(dev.count, dev.lock): %+v (bindings %+v)", got, c.Bindings())
	}
	// No (dev.lock, dev.lock) or lock-operand noise instances.
	for _, b := range c.Bindings() {
		if b.Key.Var == "dev.lock" || b.Key.Var == "dev" {
			t.Errorf("lock operand counted as shared data: %+v", b)
		}
	}
	rs := col.ByChecker("lockvar")
	if len(rs) != 1 || rs[0].Pos.Line != 10 {
		t.Errorf("reports: %+v", rs)
	}
}
