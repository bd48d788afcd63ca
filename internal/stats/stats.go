// Package stats implements the statistical ranking machinery of Section 5:
// the z statistic for proportions and the one MAY-belief template that
// every statistical checker instantiates. A checker counts, per slot
// instance, the rule's checks and errors (Evidence, keeping the first
// MaxSites counter-example sites); Rank scores each instance by z(n, e)
// against p0 — or z(n, n−e) for the inverse template — plus a latent-name
// boost, and orders instances by score, ties in the checker's key order;
// Reportable is the one floor that decides which instances report their
// counter-examples. A checker keeps only its event logic, its key order
// and its message text.
//
// The crucial design point, taken directly from the paper (§5.1), is that
// z ranks *error messages*, not beliefs: a threshold on belief scores is
// either too low (drowning in false positives) or too high (missing
// everything), whereas inspecting errors in decreasing z order lets the
// user stop when the noise gets too high.
package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"deviant/internal/ctoken"
)

// DefaultP0 is the expected example probability used by the paper
// ("we typically assume a random distribution with probability p0=0.9").
const DefaultP0 = 0.9

// Z computes the z test statistic for proportions:
//
//	z(n, e) = (e/n - p0) / sqrt(p0*(1-p0)/n)
//
// where n is the population size (number of checks) and e the number of
// examples (successful checks). Larger z means the observed ratio of
// examples to counter-examples is more standard errors above p0, i.e. the
// belief is more credible.
//
// Degenerate inputs are made finite rather than propagated: n <= 0
// returns -Inf (no evidence ranks below any evidence, and the value never
// escapes into report JSON because a zero population produces no report);
// e is clamped into [0, n] so corrupted counters cannot produce a ratio
// outside [0, 1]; and p0 is clamped into the open interval (0, 1) so the
// standard error is never zero — p0 of exactly 0 or 1 would otherwise
// divide by zero and leak NaN/Inf into the ranking.
func Z(n, e int, p0 float64) float64 {
	if n <= 0 {
		return math.Inf(-1)
	}
	if e < 0 {
		e = 0
	} else if e > n {
		e = n
	}
	const eps = 1e-9
	if p0 < eps {
		p0 = eps
	} else if p0 > 1-eps {
		p0 = 1 - eps
	}
	return (float64(e)/float64(n) - p0) / math.Sqrt(p0*(1-p0)/float64(n))
}

// ZInverse ranks the negated template T-not (the paper's "inverse
// principle"): if z(n, e) ranks instances satisfying T, z(n, n-e) ranks
// instances satisfying the negation.
func ZInverse(n, e int, p0 float64) float64 { return Z(n, n-e, p0) }

// Counter accumulates evidence for one slot-instance combination of a MAY
// belief: how often the implied rule was checked and how often it failed.
type Counter struct {
	Checks int // population n: times the rule could be tested
	Errors int // counter-examples c: times the test failed
}

// Examples returns the number of successful checks (n - c).
func (c Counter) Examples() int { return c.Checks - c.Errors }

// Z returns the ranking statistic for the counter under p0.
func (c Counter) Z(p0 float64) float64 { return Z(c.Checks, c.Examples(), p0) }

// String renders the counter as "e/n".
func (c Counter) String() string { return fmt.Sprintf("%d/%d", c.Examples(), c.Checks) }

// MaxSites caps the counter-example sites kept per slot instance.
const MaxSites = 64

// AppendSites is the one site-cap rule: it appends pos to sites and keeps
// the first MaxSites, in the order they arrive — event order, then merge
// order across workers — repeats included. Checkers that rebuild their
// sites from recorded paths (pairing, reverse) report every site,
// uncapped.
func AppendSites(sites []ctoken.Pos, pos ...ctoken.Pos) []ctoken.Pos {
	if room := MaxSites - len(sites); len(pos) > room {
		pos = pos[:max(room, 0)]
	}
	return append(sites, pos...)
}

// Evidence accumulates one MAY-belief template's evidence: a Counter per
// slot instance K, plus that instance's counter-example sites under the
// AppendSites cap. Entries are stored by value in one map, so a check
// costs one lookup and one store and allocates nothing once its key
// exists (beyond growing its site list). The zero value is ready to use.
type Evidence[K comparable] struct {
	m map[K]entry
}

type entry struct {
	Counter
	sites []ctoken.Pos
}

// add folds a counter and its counter-example sites into k's entry.
func (e *Evidence[K]) add(k K, c Counter, sites ...ctoken.Pos) {
	if e.m == nil {
		e.m = make(map[K]entry)
	}
	v := e.m[k]
	v.Checks += c.Checks
	v.Errors += c.Errors
	v.sites = AppendSites(v.sites, sites...)
	e.m[k] = v
}

// Count records one test of k's rule without keeping a site: every call
// increments Checks, and err additionally increments Errors.
func (e *Evidence[K]) Count(k K, err bool) {
	if err {
		e.add(k, Counter{Checks: 1, Errors: 1})
	} else {
		e.add(k, Counter{Checks: 1})
	}
}

// Check counts like Count and keeps a failed test's pos as one of k's
// counter-example sites.
func (e *Evidence[K]) Check(k K, err bool, pos ctoken.Pos) {
	if err {
		e.add(k, Counter{Checks: 1, Errors: 1}, pos)
	} else {
		e.add(k, Counter{Checks: 1})
	}
}

// Item is one slot instance's evidence in compact form: what Take moves
// out of an Evidence and AddItems folds back in.
type Item[K comparable] struct {
	Key K
	Counter
	Sites []ctoken.Pos
}

// Take moves e's evidence out as an exact-size item list, every item's
// sites in one shared backing array, and leaves e empty with its map's
// capacity kept for reuse. It returns nil when e holds nothing. The items
// share no memory with e, so a caller may keep them while e goes on
// counting; folding each batch with AddItems, in the order they were
// taken, reproduces the evidence of one uninterrupted count.
func (e *Evidence[K]) Take() []Item[K] {
	if len(e.m) == 0 {
		return nil
	}
	n := 0
	for _, v := range e.m {
		n += len(v.sites)
	}
	sites := make([]ctoken.Pos, 0, n)
	out := make([]Item[K], 0, len(e.m))
	for k, v := range e.m {
		lo := len(sites)
		sites = append(sites, v.sites...)
		out = append(out, Item[K]{Key: k, Counter: v.Counter, Sites: sites[lo:len(sites):len(sites)]})
	}
	clear(e.m)
	return out
}

// AddItems folds items into e: counters sum, and site lists concatenate
// in fold order under the cap — so folding per-function evidence in
// function order reproduces the serial evidence exactly. It copies what
// it keeps, so the items stay untouched and may be folded again into
// another Evidence.
func (e *Evidence[K]) AddItems(items []Item[K]) {
	for i := range items {
		e.add(items[i].Key, items[i].Counter, items[i].Sites...)
	}
}

// Count is one key's tally in compact form (see TakeCounts).
type Count[K comparable] struct {
	Key K
	N   int
}

// TakeCounts moves m's tallies out as an exact-size list (nil when m is
// empty) and clears m for reuse.
func TakeCounts[K comparable](m map[K]int) []Count[K] {
	if len(m) == 0 {
		return nil
	}
	out := make([]Count[K], 0, len(m))
	for k, n := range m {
		out = append(out, Count[K]{k, n})
	}
	clear(m)
	return out
}

// AddCounts adds each tally of cs into m.
func AddCounts[K comparable](m map[K]int, cs []Count[K]) {
	for _, c := range cs {
		m[c.Key] += c.N
	}
}

// SetLog is the counter-example log of a template whose rule is "member
// m must be in the set at every use of slot s": lockvar's "lock l is held
// at each access of v", seccheck's "check y dominates each call of x". Such
// counters factor — Checks(s, m) is the uses of s, Examples(s, m) the uses
// of s with m in the set — so the checker tallies those and the log keeps
// one record per use: its site and the set's signature (each member
// followed by a comma, ascending, as engine.NextKey enumerates a set). A
// record is a counter-example of every member its signature lacks. The
// log keeps the first MaxSites records per (slot, signature); that keeps
// every (slot, member) pair's first MaxSites counter-examples, which is
// all Sites reads. The zero value is ready to use.
type SetLog struct {
	recs []SetRec
	n    map[sigKey]int
}

// SetRec is one logged use of a slot.
type SetRec struct {
	Slot, Sig string
	Pos       ctoken.Pos
}

type sigKey struct{ slot, sig string }

// SetKey is one (slot, member) pair of a SetLog's template.
type SetKey struct{ Slot, Member string }

// Add logs one use of slot at pos under the set signature sig.
func (l *SetLog) Add(slot, sig string, pos ctoken.Pos) {
	k := sigKey{slot, sig}
	if l.n == nil {
		l.n = make(map[sigKey]int)
	}
	if l.n[k] < MaxSites {
		l.n[k]++
		l.recs = append(l.recs, SetRec{slot, sig, pos})
	}
}

// Take moves the log out as an exact-size record list (nil when empty)
// and resets l for reuse, keeping its capacity.
func (l *SetLog) Take() []SetRec {
	if len(l.recs) == 0 {
		return nil
	}
	out := make([]SetRec, len(l.recs))
	copy(out, l.recs)
	clear(l.recs)
	l.recs = l.recs[:0]
	clear(l.n)
	return out
}

// AddRecs logs recs in order, re-applying the cap; recs is not retained.
func (l *SetLog) AddRecs(recs []SetRec) {
	for _, r := range recs {
		l.Add(r.Slot, r.Sig, r.Pos)
	}
}

// Sites returns each query's counter-example sites: for query i, the
// logged uses of its slot whose signature lacks its member, in log order
// under the AppendSites cap.
func (l *SetLog) Sites(queries []SetKey) [][]ctoken.Pos {
	bySlot := make(map[string][]int)
	for i, q := range queries {
		bySlot[q.Slot] = append(bySlot[q.Slot], i)
	}
	out := make([][]ctoken.Pos, len(queries))
	for _, r := range l.recs {
		for _, i := range bySlot[r.Slot] {
			if !SigHas(r.Sig, queries[i].Member) {
				out[i] = AppendSites(out[i], r.Pos)
			}
		}
	}
	return out
}

// SigHas reports whether the comma-terminated signature sig contains m
// as a whole member.
func SigHas(sig, m string) bool {
	for len(sig) > 0 {
		i := strings.IndexByte(sig, ',')
		if sig[:i] == m {
			return true
		}
		sig = sig[i+1:]
	}
	return false
}

// Counter returns k's evidence (zero if never checked).
func (e *Evidence[K]) Counter(k K) Counter { return e.m[k].Counter }

// Sites returns k's counter-example sites, in event order.
func (e *Evidence[K]) Sites(k K) []ctoken.Pos { return e.m[k].sites }

// Instances lists every observed slot instance with its counter, in no
// particular order and not yet scored; Rank scores and orders them.
func (e *Evidence[K]) Instances() []Instance[K] {
	out := make([]Instance[K], 0, len(e.m))
	for k, v := range e.m {
		out = append(out, Instance[K]{Key: k, Counter: v.Counter})
	}
	return out
}

// Rank scores and orders every instance of e (see Rank).
func (e *Evidence[K]) Rank(o Order[K]) []Instance[K] { return Rank(e.Instances(), o) }

// Instance is one slot instance of a template: its key, its evidence, z
// under p0, and the latent-specification boost.
type Instance[K comparable] struct {
	Key K
	Counter
	Z     float64
	Boost float64
}

// Score is the inspection ranking score: z plus the boost.
func (in Instance[K]) Score() float64 { return in.Z + in.Boost }

// Reportable is the one floor rule: an instance may report its
// counter-examples when it has at least one, at least f.MinExamples
// examples, and a score of at least f.MinScore.
func (in Instance[K]) Reportable(f Floor) bool {
	return in.Errors > 0 && in.Examples() >= f.MinExamples && in.Score() >= f.MinScore
}

// Floor sets the two thresholds of Reportable.
type Floor struct {
	MinExamples int
	MinScore    float64
}

// AnyEvidence is the floor of every statistical checker except pairing
// and reverse, whose floor comes from core.Options.MinPairExamples and
// MinPairScore: one example and any score. §5.1 ranks errors rather than
// thresholding beliefs, so this floor only drops instances with nothing
// to contradict.
var AnyEvidence = Floor{MinExamples: 1, MinScore: math.Inf(-1)}

// Order says how Rank scores and orders one template's instances.
type Order[K comparable] struct {
	P0 float64
	// Boost is the latent-specification bonus added to a key's score
	// (§5.1: pairs named lock/unlock, routines named like allocators);
	// nil adds nothing.
	Boost func(K) float64
	// Inverse ranks the negated template (§5's inverse principle) by
	// z(n, n−e); counters are left as counted.
	Inverse bool
	// Compare orders keys of equal score. It must be a total order:
	// output order may not depend on map iteration.
	Compare func(a, b K) int
}

// Rank scores every instance under o and orders them by Score
// descending, ties by o.Compare — the one sort behind every derived
// table and every statistical report. ins is sorted in place and
// returned.
func Rank[K comparable](ins []Instance[K], o Order[K]) []Instance[K] {
	for i := range ins {
		in := &ins[i]
		if o.Inverse {
			in.Z = ZInverse(in.Checks, in.Examples(), o.P0)
		} else {
			in.Z = in.Counter.Z(o.P0)
		}
		if o.Boost != nil {
			in.Boost = o.Boost(in.Key)
		}
	}
	slices.SortFunc(ins, func(a, b Instance[K]) int {
		if sa, sb := a.Score(), b.Score(); sa != sb {
			if sa > sb {
				return -1
			}
			return 1
		}
		return o.Compare(a.Key, b.Key)
	})
	return ins
}

// InspectionPoint is one step of a simulated inspection of a ranked error
// list: after examining the i-th message (1-based), Hits errors were real
// and FalsePositives were not.
type InspectionPoint struct {
	Rank           int
	Hits           int
	FalsePositives int
}

// InspectionCurve simulates the paper's inspection methodology: walk a
// ranked list of error messages top-down, tallying true bugs versus false
// positives at every rank. isBug reports ground truth for the i-th ranked
// message.
func InspectionCurve(n int, isBug func(i int) bool) []InspectionPoint {
	out := make([]InspectionPoint, 0, n)
	hits, fps := 0, 0
	for i := 0; i < n; i++ {
		if isBug(i) {
			hits++
		} else {
			fps++
		}
		out = append(out, InspectionPoint{Rank: i + 1, Hits: hits, FalsePositives: fps})
	}
	return out
}

// StopAtNoise returns the largest rank k such that the cumulative false
// positive rate within the first k messages stays at or below maxFPRate,
// mimicking "we stop when the false positive rate is too high". It scans
// from the top and returns the last acceptable prefix length.
func StopAtNoise(curve []InspectionPoint, maxFPRate float64) int {
	best := 0
	for _, pt := range curve {
		rate := float64(pt.FalsePositives) / float64(pt.Rank)
		if rate <= maxFPRate {
			best = pt.Rank
		}
	}
	return best
}
