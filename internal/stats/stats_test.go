package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"deviant/internal/ctoken"
)

func TestZBasics(t *testing.T) {
	// Perfect fit above p0 is positive, ratio below p0 negative.
	if Z(100, 100, DefaultP0) <= 0 {
		t.Error("100/100 should rank positive")
	}
	if Z(100, 50, DefaultP0) >= 0 {
		t.Error("50/100 should rank negative at p0=0.9")
	}
	if !math.IsInf(Z(0, 0, DefaultP0), -1) {
		t.Error("empty population ranks -Inf")
	}
}

func TestZFavorsEvidence(t *testing.T) {
	// Paper: "This statistic favors samples with more evidence, and a
	// higher ratio of examples to counter-examples."
	// 999/1000 must outrank 9/10 (same 90%+ ratio shape, more evidence).
	if Z(1000, 999, DefaultP0) <= Z(10, 9, DefaultP0) {
		t.Errorf("z(1000,999)=%v should exceed z(10,9)=%v",
			Z(1000, 999, DefaultP0), Z(10, 9, DefaultP0))
	}
	// And a higher ratio at fixed n outranks a lower one.
	if Z(100, 99, DefaultP0) <= Z(100, 95, DefaultP0) {
		t.Error("higher example ratio should rank higher")
	}
}

func TestZExactValue(t *testing.T) {
	// Hand-computed: n=100, e=95, p0=0.9 -> (0.95-0.9)/sqrt(0.09/100)
	want := 0.05 / math.Sqrt(0.0009)
	got := Z(100, 95, 0.9)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestZInverse(t *testing.T) {
	// The inverse principle: z(n, n-e).
	if ZInverse(100, 5, DefaultP0) != Z(100, 95, DefaultP0) {
		t.Error("inverse mismatch")
	}
}

// Property: z is monotonically increasing in e for fixed n.
func TestZMonotoneInExamples(t *testing.T) {
	f := func(nRaw, eRaw uint8) bool {
		n := int(nRaw%100) + 2
		e := int(eRaw) % n
		return Z(n, e, DefaultP0) < Z(n, e+1, DefaultP0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCounter(t *testing.T) {
	c := Counter{Checks: 4, Errors: 1}
	if c.Examples() != 3 {
		t.Errorf("examples: %d", c.Examples())
	}
	if c.String() != "3/4" {
		t.Errorf("string: %q", c.String())
	}
}

func TestEvidenceCheckAndRank(t *testing.T) {
	var ev Evidence[string]
	// Figure 1's counts: (a,l): 4 checks, 1 error; (b,l): 3 checks, 2 errors.
	for i := 0; i < 4; i++ {
		ev.Check("a@l", i == 3, ctoken.Pos{Line: i})
	}
	ev.Check("b@l", false, ctoken.Pos{})
	ev.Check("b@l", true, ctoken.Pos{Line: 10})
	ev.Check("b@l", true, ctoken.Pos{Line: 11})

	if got := ev.Counter("a@l"); got.Checks != 4 || got.Errors != 1 {
		t.Errorf("a@l: %+v", got)
	}
	if got := ev.Sites("b@l"); len(got) != 2 || got[0].Line != 10 || got[1].Line != 11 {
		t.Errorf("b@l sites: only counter-examples, in event order: %v", got)
	}
	ranked := ev.Rank(Order[string]{P0: DefaultP0, Compare: strings.Compare})
	if len(ranked) != 2 || ranked[0].Key != "a@l" {
		t.Errorf("a@l should outrank b@l: %+v", ranked)
	}
	if ranked[0].Z != ev.Counter("a@l").Z(DefaultP0) {
		t.Errorf("rank z %v, want the counter's", ranked[0].Z)
	}
}

func TestRankedBoost(t *testing.T) {
	var ev Evidence[string]
	for i := 0; i < 10; i++ {
		ev.Count("foo:bar", i == 9)
		ev.Count("my_lock:my_unlock", i == 9)
	}
	boost := func(key string) float64 {
		if key == "my_lock:my_unlock" {
			return 1.0
		}
		return 0
	}
	ranked := ev.Rank(Order[string]{P0: DefaultP0, Boost: boost, Compare: strings.Compare})
	if ranked[0].Key != "my_lock:my_unlock" || ranked[0].Score() != ranked[0].Z+1 {
		t.Errorf("latent boost should promote lock pair: %+v", ranked)
	}
}

func TestRankedDeterministicTies(t *testing.T) {
	var ev Evidence[string]
	ev.Count("b", false)
	ev.Count("a", false)
	r := ev.Rank(Order[string]{P0: DefaultP0, Compare: strings.Compare})
	if r[0].Key != "a" || r[1].Key != "b" {
		t.Errorf("ties should sort by key: %+v", r)
	}
	// The comparator, not the key's string form, breaks ties: a
	// reversed order must reverse the ranking.
	r = ev.Rank(Order[string]{P0: DefaultP0, Compare: func(a, b string) int { return strings.Compare(b, a) }})
	if r[0].Key != "b" {
		t.Errorf("ties should follow the supplied order: %+v", r)
	}
}

// TestKeysSorted pins that Rank is a pure function of the evidence: every
// observed key appears once, whatever order the keys were first seen in.
func TestKeysSorted(t *testing.T) {
	var ev Evidence[string]
	ev.Count("z", false)
	ev.Count("a", false)
	ev.Count("m", false)
	r := ev.Rank(Order[string]{P0: DefaultP0, Compare: strings.Compare})
	if len(r) != 3 || r[0].Key != "a" || r[1].Key != "m" || r[2].Key != "z" {
		t.Errorf("keys: %+v", r)
	}
}

func TestInverseRank(t *testing.T) {
	var ev Evidence[string]
	for i := 0; i < 10; i++ {
		ev.Count("checked", i == 9) // 9/10 checked
		ev.Count("never", i != 0)   // 1/10 checked
	}
	inv := ev.Rank(Order[string]{P0: DefaultP0, Inverse: true, Compare: strings.Compare})
	if inv[0].Key != "never" {
		t.Fatalf("inverse template should rank the rarely-checked key first: %+v", inv)
	}
	if inv[0].Z != ZInverse(10, 1, DefaultP0) || inv[0].Errors != 9 {
		t.Errorf("inverse z is z(n, n-e) over the counters as counted: %+v", inv[0])
	}
}

func TestSiteCapAndMerge(t *testing.T) {
	var a, b Evidence[string]
	for i := 0; i < MaxSites-1; i++ {
		a.Check("k", true, ctoken.Pos{Line: i})
	}
	b.Check("k", true, ctoken.Pos{Line: 1000})
	b.Check("k", true, ctoken.Pos{Line: 1001})
	b.Check("k", false, ctoken.Pos{Line: 1002})
	items := b.Take()
	a.AddItems(items)
	if b.Counter("k") != (Counter{}) || len(items) != 1 || len(items[0].Sites) != 2 {
		t.Errorf("Take must empty b and keep its evidence: %+v, %+v", b.Counter("k"), items)
	}
	if c := a.Counter("k"); c.Checks != MaxSites+2 || c.Errors != MaxSites+1 {
		t.Errorf("merged counter: %+v", c)
	}
	sites := a.Sites("k")
	if len(sites) != MaxSites || sites[MaxSites-1].Line != 1000 {
		t.Errorf("merge keeps the first %d sites in merge order: %d sites, last %v",
			MaxSites, len(sites), sites[len(sites)-1])
	}
	// Repeats count against the cap like any other site.
	var r Evidence[string]
	for i := 0; i < MaxSites+5; i++ {
		r.Check("k", true, ctoken.Pos{Line: 7})
	}
	if len(r.Sites("k")) != MaxSites {
		t.Errorf("repeated site kept %d times, want %d", len(r.Sites("k")), MaxSites)
	}
}

func TestFloor(t *testing.T) {
	in := func(checks, errors int, z float64) Instance[string] {
		return Instance[string]{Counter: Counter{Checks: checks, Errors: errors}, Z: z}
	}
	pair := Floor{MinExamples: 2, MinScore: 1}
	for _, tc := range []struct {
		in   Instance[string]
		f    Floor
		want bool
	}{
		{in(3, 1, -5), AnyEvidence, true},
		{in(3, 0, 5), AnyEvidence, false}, // nothing to report
		{in(3, 3, 5), AnyEvidence, false}, // no example
		{in(3, 1, 1), pair, true},
		{in(2, 1, 1), pair, false},   // one example
		{in(3, 1, 0.9), pair, false}, // score under the floor
	} {
		if got := tc.in.Reportable(tc.f); got != tc.want {
			t.Errorf("%+v under %+v: %v, want %v", tc.in, tc.f, got, tc.want)
		}
	}
}

func TestInspectionCurve(t *testing.T) {
	// bugs at ranks 1,2,4 (0-indexed 0,1,3)
	truth := []bool{true, true, false, true, false}
	curve := InspectionCurve(len(truth), func(i int) bool { return truth[i] })
	if len(curve) != 5 {
		t.Fatalf("curve length: %d", len(curve))
	}
	last := curve[4]
	if last.Hits != 3 || last.FalsePositives != 2 {
		t.Errorf("final point: %+v", last)
	}
	if curve[1].Hits != 2 || curve[1].FalsePositives != 0 {
		t.Errorf("point 2: %+v", curve[1])
	}
}

func TestStopAtNoise(t *testing.T) {
	truth := []bool{true, true, true, false, true, false, false, false}
	curve := InspectionCurve(len(truth), func(i int) bool { return truth[i] })
	// At most 25% FPs: prefix of 4 has 1/4 = 25% ok; prefix of 5 has 1/5
	// = 20% ok; 6 has 2/6 = 33% too high; 7,8 worse.
	if got := StopAtNoise(curve, 0.25); got != 5 {
		t.Errorf("stop: %d", got)
	}
	if got := StopAtNoise(curve, 0.0); got != 3 {
		t.Errorf("strict stop: %d", got)
	}
}

// Property: inspection curve totals always sum to rank.
func TestInspectionCurveSums(t *testing.T) {
	f := func(bits []bool) bool {
		curve := InspectionCurve(len(bits), func(i int) bool { return bits[i] })
		for _, pt := range curve {
			if pt.Hits+pt.FalsePositives != pt.Rank {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Rank is ordered by non-increasing score and contains every
// observed key exactly once, with Errors <= Checks.
func TestRankedInstancesInvariants(t *testing.T) {
	f := func(events []bool) bool {
		var ev Evidence[string]
		keys := []string{"a", "b", "c", "d"}
		seenKeys := map[string]bool{}
		for i, e := range events {
			ev.Count(keys[i%len(keys)], e)
			seenKeys[keys[i%len(keys)]] = true
		}
		ranked := ev.Rank(Order[string]{P0: DefaultP0, Compare: strings.Compare})
		if len(ranked) != len(seenKeys) {
			return false
		}
		seen := map[string]bool{}
		prev := 0.0
		for i, r := range ranked {
			if seen[r.Key] || r.Errors > r.Checks || r.Checks <= 0 {
				return false
			}
			seen[r.Key] = true
			if i > 0 && r.Score() > prev {
				return false
			}
			prev = r.Score()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
