package dist

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"deviant/internal/core"
	"deviant/internal/obs"
	"deviant/internal/snapshot"
)

// fleetHeader and fleetSources form a six-unit corpus with cross-unit
// statistical signal (kmalloc checked in most callers, lock pairing,
// null check-then-use) so the global half of the pipeline has real
// work to merge.
const fleetHeader = `
#define NULL 0
struct dev { int count; int *buf; struct lock *lk; };
struct lock { int held; };
void *kmalloc(int n);
void kfree(void *p);
void printk(const char *fmt, ...);
void spin_lock(struct lock *l);
void spin_unlock(struct lock *l);
void panic(const char *fmt, ...);
`

func fleetSources() map[string]string {
	return map[string]string{
		"include/kernel.h": fleetHeader,
		"alpha.c": `
#include "kernel.h"
int alpha_init(struct dev *d) {
	int *b = kmalloc(16);
	if (!b)
		return -1;
	d->buf = b;
	return 0;
}
int alpha_reset(struct dev *d) {
	if (d == NULL)
		printk("reset %d\n", d->count);
	return 0;
}
`,
		"beta.c": `
#include "kernel.h"
int beta_grow(struct dev *d, int n) {
	int *b = kmalloc(n);
	if (!b)
		return -1;
	d->buf = b;
	return 0;
}
void beta_work(struct dev *d) {
	spin_lock(d->lk);
	d->count++;
	spin_unlock(d->lk);
}
`,
		"gamma.c": `
#include "kernel.h"
int gamma_open(struct dev *d) {
	int *b = kmalloc(8);
	b[0] = 1;
	return 0;
}
`,
		"delta.c": `
#include "kernel.h"
int delta_fill(struct dev *d) {
	int *b = kmalloc(32);
	if (!b)
		return -1;
	b[0] = 7;
	d->buf = b;
	return 0;
}
void delta_drop(struct dev *d) {
	kfree(d->buf);
	d->buf = NULL;
}
`,
		"epsilon.c": `
#include "kernel.h"
void eps_toggle(struct dev *d) {
	spin_lock(d->lk);
	if (d->count > 0)
		d->count--;
	spin_unlock(d->lk);
}
int eps_probe(struct dev *d) {
	if (d->buf == NULL)
		return -1;
	return d->buf[0];
}
`,
		"zeta.c": `
#include "kernel.h"
int zeta_setup(struct dev *d) {
	int *b = kmalloc(64);
	if (!b)
		return -1;
	d->buf = b;
	spin_lock(d->lk);
	d->count = 0;
	spin_unlock(d->lk);
	return 0;
}
`,
	}
}

// canon flattens everything the determinism contract covers into one
// string. Snapshot stats and timings are deliberately excluded: both
// are topology-dependent (reuse happens per worker, time is wall
// clock), documented as outside the byte-identity contract.
func canon(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "funcs=%d lines=%d\n", res.FuncCount, res.LineCount)
	for _, e := range res.ParseErrors {
		fmt.Fprintf(&b, "perr %s\n", e.Error())
	}
	fmt.Fprintf(&b, "degraded=%v panics=%d\n", res.Degraded, res.PanicsRecovered)
	for _, q := range res.Quarantined {
		fmt.Fprintf(&b, "quar %s %s %s\n", q.Stage, q.Unit, q.Cause)
	}
	for i, r := range res.Reports.Ranked() {
		fmt.Fprintf(&b, "%4d. %s\n", i+1, r.String())
	}
	for _, p := range res.Pairs {
		fmt.Fprintf(&b, "pair %s/%s %d/%d z=%.4f\n", p.Key.A, p.Key.B, p.Examples(), p.Checks, p.Z)
	}
	for _, d := range res.CanFail {
		fmt.Fprintf(&b, "canfail %s %d/%d z=%.4f\n", d.Key, d.Examples(), d.Checks, d.Z)
	}
	for _, bd := range res.LockBindings {
		fmt.Fprintf(&b, "lock %s/%s %d/%d z=%.4f\n", bd.Key.Lock, bd.Key.Var, bd.Examples(), bd.Checks, bd.Z)
	}
	return b.String()
}

// localWorker is an in-process ShardCaller: RunShard behind a kill
// switch, with its own snapshot store — one failure-containment unit.
type localWorker struct {
	store *snapshot.Store
	down  atomic.Bool
	calls atomic.Int64
}

func (w *localWorker) Shard(ctx context.Context, req *ShardRequest, requestID string) (*ShardResponse, error) {
	w.calls.Add(1)
	if w.down.Load() {
		return nil, errors.New("worker down")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return RunShard(req, w.store, 0)
}

// newLocalFleet builds a coordinator over n in-process workers.
func newLocalFleet(t *testing.T, n int) (*Coordinator, []*localWorker) {
	t.Helper()
	ws := make([]*localWorker, n)
	fleet := make([]Worker, n)
	for i := range ws {
		ws[i] = &localWorker{store: snapshot.NewStore(0)}
		fleet[i] = Worker{Name: fmt.Sprintf("w%d", i), Caller: ws[i]}
	}
	c, err := NewCoordinator(fleet)
	if err != nil {
		t.Fatal(err)
	}
	return c, ws
}

func baseline(t *testing.T, srcs map[string]string) string {
	t.Helper()
	res, err := core.New(core.DefaultOptions(), nil).AnalyzeSources(srcs)
	if err != nil {
		t.Fatal(err)
	}
	return canon(res)
}

// TestFleetByteIdentity is the tentpole acceptance pin: coordinator
// output over 1, 2 and 4 workers is byte-identical to a single-process
// run on the same corpus, cold and warm.
func TestFleetByteIdentity(t *testing.T) {
	srcs := fleetSources()
	want := baseline(t, srcs)
	for _, n := range []int{1, 2, 4} {
		c, ws := newLocalFleet(t, n)
		res, err := c.Run(context.Background(), srcs, core.DefaultOptions(), "t1")
		if err != nil {
			t.Fatalf("fleet(%d): %v", n, err)
		}
		if got := canon(res); got != want {
			t.Fatalf("fleet(%d) output diverged from single-process:\n--- fleet\n%s--- single\n%s", n, got, want)
		}
		if res.Degraded {
			t.Fatalf("fleet(%d): healthy run marked degraded: %v", n, res.Quarantined)
		}
		// Warm rerun: byte-identical again, now served from worker
		// snapshot stores (token retention keeps shard payloads warm).
		res2, err := c.Run(context.Background(), srcs, core.DefaultOptions(), "t2")
		if err != nil {
			t.Fatalf("fleet(%d) warm: %v", n, err)
		}
		if got := canon(res2); got != want {
			t.Fatalf("fleet(%d) warm output diverged", n)
		}
		if res2.Snapshot.UnitsReused != 6 || res2.Snapshot.UnitsParsed != 0 {
			t.Fatalf("fleet(%d) warm reuse: %+v, want all 6 units reused", n, res2.Snapshot)
		}
		total := int64(0)
		for _, w := range ws {
			total += w.calls.Load()
		}
		if total == 0 {
			t.Fatal("no worker was ever called")
		}
	}
}

// TestFleetRescatter kills one worker of four before the run: its shard
// re-scatters to survivors and the result is still byte-identical to
// single-process — not degraded, no quarantine.
func TestFleetRescatter(t *testing.T) {
	srcs := fleetSources()
	want := baseline(t, srcs)
	c, ws := newLocalFleet(t, 4)
	ws[2].down.Store(true)
	res, err := c.Run(context.Background(), srcs, core.DefaultOptions(), "t3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("re-scatter absorbed the failure but run is degraded: %v", res.Quarantined)
	}
	if got := canon(res); got != want {
		t.Fatalf("dead-worker output diverged from single-process:\n--- fleet\n%s--- single\n%s", got, want)
	}
}

// TestFleetAllDead pins the failure floor: with every worker down the
// run completes Degraded — never an error — with one deterministic
// fleet-stage quarantine record per unit, byte-identical across runs.
func TestFleetAllDead(t *testing.T) {
	srcs := fleetSources()
	c, ws := newLocalFleet(t, 3)
	for _, w := range ws {
		w.down.Store(true)
	}
	run := func() *core.Result {
		res, err := c.Run(context.Background(), srcs, core.DefaultOptions(), "t4")
		if err != nil {
			t.Fatalf("all-dead fleet must degrade, not fail: %v", err)
		}
		return res
	}
	res := run()
	if !res.Degraded {
		t.Fatal("all-dead run not marked degraded")
	}
	if len(res.Quarantined) != 6 {
		t.Fatalf("want 6 quarantined units, got %d: %v", len(res.Quarantined), res.Quarantined)
	}
	for _, q := range res.Quarantined {
		if q.Stage != fleetStage || q.Cause != causeLost {
			t.Fatalf("unexpected quarantine record: %+v", q)
		}
	}
	if res.FuncCount != 0 || len(res.Reports.Ranked()) != 0 {
		t.Fatalf("all-dead run analyzed something: funcs=%d", res.FuncCount)
	}
	if a, b := canon(res), canon(run()); a != b {
		t.Fatalf("all-dead degradation not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// corruptCaller proxies a worker and flips a byte in one unit's token
// payload, modeling disk/network corruption past TCP's checksum.
type corruptCaller struct {
	inner ShardCaller
	unit  string
}

func (c *corruptCaller) Shard(ctx context.Context, req *ShardRequest, requestID string) (*ShardResponse, error) {
	resp, err := c.inner.Shard(ctx, req, requestID)
	if err != nil {
		return nil, err
	}
	for i := range resp.Partials {
		if resp.Partials[i].Unit == c.unit && len(resp.Partials[i].Tokens) > 0 {
			resp.Partials[i].Tokens[0] ^= 0xff
		}
	}
	return resp, nil
}

// dropCaller proxies a worker and silently drops one unit's partial
// without a quarantine record — a malformed response.
type dropCaller struct {
	inner ShardCaller
	unit  string
}

func (c *dropCaller) Shard(ctx context.Context, req *ShardRequest, requestID string) (*ShardResponse, error) {
	resp, err := c.inner.Shard(ctx, req, requestID)
	if err != nil {
		return nil, err
	}
	kept := resp.Partials[:0]
	for _, p := range resp.Partials {
		if p.Unit != c.unit {
			kept = append(kept, p)
		}
	}
	resp.Partials = kept
	return resp, nil
}

// TestFleetCorruptAndMissingPartials pins the failure matrix rows for
// corrupt and missing partials: the affected unit quarantines with its
// fixed deterministic cause, the rest of the corpus analyzes normally.
func TestFleetCorruptAndMissingPartials(t *testing.T) {
	srcs := fleetSources()
	for _, tc := range []struct {
		name  string
		wrap  func(ShardCaller) ShardCaller
		cause string
	}{
		{"corrupt", func(s ShardCaller) ShardCaller { return &corruptCaller{inner: s, unit: "gamma.c"} }, causeCorrupt},
		{"missing", func(s ShardCaller) ShardCaller { return &dropCaller{inner: s, unit: "gamma.c"} }, causeMissing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &localWorker{store: snapshot.NewStore(0)}
			c, err := NewCoordinator([]Worker{{Name: "w0", Caller: tc.wrap(w)}})
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(context.Background(), srcs, core.DefaultOptions(), "t5")
			if err != nil {
				t.Fatalf("%s partial must degrade, not fail: %v", tc.name, err)
			}
			if !res.Degraded {
				t.Fatal("not degraded")
			}
			if len(res.Quarantined) != 1 {
				t.Fatalf("want 1 record, got %v", res.Quarantined)
			}
			q := res.Quarantined[0]
			if q.Stage != fleetStage || q.Unit != "gamma.c" || q.Cause != tc.cause {
				t.Fatalf("record %+v, want fleet/gamma.c/%s", q, tc.cause)
			}
			if res.FuncCount == 0 {
				t.Fatal("healthy units were not analyzed")
			}
		})
	}
}

// TestFleetMetrics checks the instrumentation satellite: scatter
// latency histograms exist per worker, and the re-scatter/lost counters
// and health gauge move when workers die.
func TestFleetMetrics(t *testing.T) {
	srcs := fleetSources()
	c, ws := newLocalFleet(t, 3)
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)

	if _, err := c.Run(context.Background(), srcs, core.DefaultOptions(), "m1"); err != nil {
		t.Fatal(err)
	}
	if got := c.m.healthy.Value(); got != 3 {
		t.Fatalf("healthy gauge %v, want 3", got)
	}
	ws[0].down.Store(true)
	ws[1].down.Store(true)
	ws[2].down.Store(true)
	if _, err := c.Run(context.Background(), srcs, core.DefaultOptions(), "m2"); err != nil {
		t.Fatal(err)
	}
	if got := c.m.healthy.Value(); got != 0 {
		t.Fatalf("healthy gauge %v after all-dead run, want 0", got)
	}
	if got := c.m.lost.Value(); got != 6 {
		t.Fatalf("lost counter %v, want 6", got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"deviantd_fleet_scatter_seconds", "deviantd_fleet_workers", "deviantd_fleet_lost_units_total"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("metrics output missing %s", want)
		}
	}
}
