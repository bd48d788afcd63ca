package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"deviant/internal/fault"
	"deviant/internal/snapshot"
)

// quarantineSources is a small multi-unit corpus with distinctive
// function names the failpoint tests can target.
func quarantineSources() map[string]string {
	return map[string]string{
		"a.c": `
void *kmalloc(int n);
int qtrap_alpha(int *p) {
	if (p == 0)
		return -1;
	return *p;
}
int healthy_a(void) {
	int *b = kmalloc(4);
	if (!b)
		return -1;
	b[0] = 1;
	return 0;
}
`,
		"b.c": `
void *kmalloc(int n);
int qtrap_beta(int x) {
	return x + 1;
}
int healthy_b(int *p) {
	return p ? *p : 0;
}
`,
		"c.c": `
int healthy_c(int v) {
	if (v > 0)
		return v;
	return -v;
}
`,
	}
}

// renderWithQuarantine extends the determinism rendering with the
// quarantine section so byte-identity pins cover it.
func renderWithQuarantine(res *Result) string {
	var b strings.Builder
	b.WriteString(renderResult(res))
	fmt.Fprintf(&b, "degraded=%v panics=%d\n", res.Degraded, res.PanicsRecovered)
	for _, q := range res.Quarantined {
		fmt.Fprintf(&b, "quarantine %s\n", q)
	}
	return b.String()
}

func analyzeWorkers(t *testing.T, srcs map[string]string, workers int, mutate func(*Options)) *Result {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = workers
	if mutate != nil {
		mutate(&opts)
	}
	res, err := New(opts, nil).AnalyzeSources(srcs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A panic injected into the checker stage must quarantine exactly the
// trapped functions — per checker — while every other function's
// reports survive, byte-identically across Workers 1/4/8.
func TestQuarantineCheckerDeterminism(t *testing.T) {
	fault.Arm("checker", "qtrap")
	defer fault.Reset()

	var renders []string
	for _, w := range []int{1, 4, 8} {
		res := analyzeWorkers(t, quarantineSources(), w, nil)
		if !res.Degraded || len(res.Quarantined) == 0 {
			t.Fatalf("workers=%d: no quarantine despite armed trap", w)
		}
		if res.PanicsRecovered == 0 {
			t.Fatalf("workers=%d: PanicsRecovered=0", w)
		}
		for _, q := range res.Quarantined {
			if !strings.HasPrefix(q.Stage, "checker:") {
				t.Fatalf("workers=%d: unexpected stage %q", w, q.Stage)
			}
			if !strings.Contains(q.Unit, "qtrap") {
				t.Fatalf("workers=%d: healthy function %q quarantined", w, q.Unit)
			}
			if !strings.HasPrefix(q.Cause, "injected: ") {
				t.Fatalf("workers=%d: cause not redacted-injected: %q", w, q.Cause)
			}
		}
		renders = append(renders, renderWithQuarantine(res))
	}
	if renders[0] != renders[1] || renders[0] != renders[2] {
		t.Errorf("output differs across worker counts:\n-- w1 --\n%s\n-- w4 --\n%s\n-- w8 --\n%s",
			renders[0], renders[1], renders[2])
	}
	// Healthy functions must still be analyzed: the run is degraded, not
	// dead.
	res := analyzeWorkers(t, quarantineSources(), 4, nil)
	if res.FuncCount != 5 {
		t.Errorf("FuncCount = %d, want 5 (semantic index keeps all)", res.FuncCount)
	}
}

// A frontend panic quarantines the whole translation unit: its lines,
// diagnostics and declarations vanish from the result, other units are
// untouched, and the quarantine section is worker-count independent.
func TestQuarantineFrontend(t *testing.T) {
	fault.Arm("frontend", "qtrap_beta")
	defer fault.Reset()

	var renders []string
	for _, w := range []int{1, 4, 8} {
		res := analyzeWorkers(t, quarantineSources(), w, nil)
		if len(res.Quarantined) != 1 {
			t.Fatalf("workers=%d: quarantined = %v, want exactly b.c", w, res.Quarantined)
		}
		q := res.Quarantined[0]
		if q.Stage != "frontend" || q.Unit != "b.c" {
			t.Fatalf("workers=%d: record %+v, want frontend b.c", w, q)
		}
		// b.c's two functions are gone; a.c and c.c's three remain.
		if res.FuncCount != 3 {
			t.Fatalf("workers=%d: FuncCount = %d, want 3", w, res.FuncCount)
		}
		renders = append(renders, renderWithQuarantine(res))
	}
	if renders[0] != renders[1] || renders[0] != renders[2] {
		t.Errorf("frontend quarantine output differs across worker counts")
	}
}

// A CFG-stage panic quarantines one function: it drops out of every
// checker, the rest of its unit survives.
func TestQuarantineCFG(t *testing.T) {
	fault.Arm("cfg", "qtrap_alpha")
	defer fault.Reset()

	var renders []string
	for _, w := range []int{1, 4, 8} {
		res := analyzeWorkers(t, quarantineSources(), w, nil)
		if len(res.Quarantined) != 1 {
			t.Fatalf("workers=%d: quarantined = %v", w, res.Quarantined)
		}
		q := res.Quarantined[0]
		if q.Stage != "cfg" || q.Unit != "qtrap_alpha" {
			t.Fatalf("workers=%d: record %+v, want cfg qtrap_alpha", w, q)
		}
		// The function still exists semantically but was never checked.
		if res.FuncCount != 5 {
			t.Fatalf("workers=%d: FuncCount = %d, want 5", w, res.FuncCount)
		}
		for _, r := range res.Reports.Ranked() {
			if strings.Contains(r.Message, "qtrap_alpha") {
				t.Fatalf("workers=%d: quarantined function still produced report %s", w, r.String())
			}
		}
		renders = append(renders, renderWithQuarantine(res))
	}
	if renders[0] != renders[1] || renders[0] != renders[2] {
		t.Errorf("cfg quarantine output differs across worker counts")
	}
}

// Disarmed failpoints must change nothing: same bytes as a run that
// never knew about fault containment.
func TestQuarantineDisarmedIsClean(t *testing.T) {
	fault.Reset()
	res := analyzeWorkers(t, quarantineSources(), 4, nil)
	if res.Degraded || len(res.Quarantined) != 0 || res.PanicsRecovered != 0 {
		t.Fatalf("clean run degraded: %+v", res.Quarantined)
	}
}

// A tiny visit budget quarantines the functions that blow it — the same
// set for every worker count, since visit counts are content-driven.
func TestQuarantineVisitBudget(t *testing.T) {
	fault.Reset()
	withBudget := func(o *Options) { o.VisitBudget = 2 }
	var renders []string
	for _, w := range []int{1, 4, 8} {
		res := analyzeWorkers(t, quarantineSources(), w, withBudget)
		if !res.Degraded {
			t.Fatalf("workers=%d: VisitBudget=2 quarantined nothing", w)
		}
		for _, q := range res.Quarantined {
			if !strings.HasPrefix(q.Stage, "checker:") || !strings.HasPrefix(q.Cause, "budget-exceeded:") {
				t.Fatalf("workers=%d: unexpected record %+v", w, q)
			}
		}
		if res.PanicsRecovered != 0 {
			t.Errorf("workers=%d: budget overrun counted as panic", w)
		}
		renders = append(renders, renderWithQuarantine(res))
	}
	if renders[0] != renders[1] || renders[0] != renders[2] {
		t.Errorf("visit-budget quarantine differs across worker counts:\n%s\nvs\n%s\nvs\n%s",
			renders[0], renders[1], renders[2])
	}
	// Budget-truncated partials are cached with their flag: a warm run
	// over a store reuses every partial and re-adds every budget record.
	store := snapshot.NewStore(0)
	warmBudget := func(o *Options) { withBudget(o); o.Snapshot = store }
	analyzeWorkers(t, quarantineSources(), 4, warmBudget)
	warm := analyzeWorkers(t, quarantineSources(), 4, warmBudget)
	if warm.Snapshot.PartialsBuilt != 0 || warm.Snapshot.PartialsReused == 0 {
		t.Errorf("warm budget run: %+v, want every partial reused", warm.Snapshot)
	}
	if got := renderWithQuarantine(warm); got != renders[0] {
		t.Errorf("warm visit-budget run differs from cold:\n%s\nvs\n%s", got, renders[0])
	}
	// A generous budget quarantines nothing and matches the default run.
	loose := analyzeWorkers(t, quarantineSources(), 4, func(o *Options) { o.VisitBudget = 1 << 20 })
	if loose.Degraded {
		t.Errorf("generous budget still quarantined: %v", loose.Quarantined)
	}
}

// An already-expired run deadline yields a degraded result with
// DeadlineExceeded set and aggregate per-stage records — not an error,
// not a hang, not a crash.
func TestQuarantineRunDeadline(t *testing.T) {
	fault.Reset()
	res := analyzeWorkers(t, quarantineSources(), 4, func(o *Options) {
		o.Deadline = time.Now().Add(-time.Second)
	})
	if !res.DeadlineExceeded || !res.Degraded {
		t.Fatalf("expired deadline: DeadlineExceeded=%v Degraded=%v", res.DeadlineExceeded, res.Degraded)
	}
	if res.FuncCount != 0 {
		t.Errorf("FuncCount = %d after pre-expired deadline, want 0", res.FuncCount)
	}
	seen := false
	for _, q := range res.Quarantined {
		if q.Unit != "*" || q.Cause != "deadline-exceeded" {
			t.Errorf("unexpected deadline record %+v", q)
		}
		if q.Stage == "frontend" {
			seen = true
		}
	}
	if !seen {
		t.Errorf("no frontend deadline record: %v", res.Quarantined)
	}
}

// Quarantine must also be invariant to memoization: the trap fires
// before the engine touches the accumulator, so memo on/off sees the
// same quarantine set.
func TestQuarantineMemoInvariant(t *testing.T) {
	fault.Arm("checker", "qtrap")
	defer fault.Reset()
	on := analyzeWorkers(t, quarantineSources(), 4, nil)
	off := analyzeWorkers(t, quarantineSources(), 4, func(o *Options) { o.Memoize = false })
	a, b := fmt.Sprint(on.Quarantined), fmt.Sprint(off.Quarantined)
	if a != b {
		t.Errorf("quarantine differs memo on/off:\n%s\nvs\n%s", a, b)
	}
}
