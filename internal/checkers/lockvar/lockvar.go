// Package lockvar implements the statistical "does lock <l> protect
// variable <v>" checker of Section 3.3. Every (variable, lock) pair
// observed at least once with the variable accessed while the lock is
// held is a candidate MUST belief; the checker counts protected and
// unprotected accesses and ranks the unprotected ones (the errors) by the
// z statistic of the pair's evidence. A pair never seen held has no
// example, so there is no belief to violate and no binding to rank.
//
// The checker also applies the non-spurious principle (§5): a critical
// section that accesses exactly one shared variable promotes the MAY
// belief "l protects v" to a MUST belief, and a lock protecting nothing
// at an acceptable rank is itself suspicious.
package lockvar

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"deviant/internal/cast"
	"deviant/internal/csem"
	"deviant/internal/ctoken"
	"deviant/internal/engine"
	"deviant/internal/latent"
	"deviant/internal/report"
	"deviant/internal/stats"
)

// Checker accumulates lock/variable evidence across a whole program.
type Checker struct {
	conv    *latent.Conventions
	globals map[string]bool // shared-variable universe
	locks   map[string]bool // lock-id universe
	p0      float64

	// Evidence, factored by the identity Checks(v,l) = accesses(v) and
	// Examples(v,l) = heldAt(v,l): a pair's Checks counter does not
	// depend on the lock at all, and its Examples counter only grows
	// when the lock is actually held — so one statement costs one
	// accesses bump plus one bump per held lock (usually zero), instead
	// of a counter update per lock in the universe. No O(vars × locks)
	// pair table ever exists: Bindings enumerates heldAt, the pairs with
	// at least one example.
	accesses map[string]int // v → shared accesses (= Checks of every pair of v)
	heldAt   map[Key]int    // (v, l) → accesses of v made while l held (= Examples)
	must     map[Key]bool   // promoted MUST pairs (single-var critical sections)

	// Access sites, one record per shared access keyed by (v, held-set
	// signature): the record is an error site for every candidate (v, l)
	// whose lock is absent from the signature (see stats.SetLog).
	log stats.SetLog

	// Fork-local hot-path caches (single goroutine each): slot keys and
	// lock ids are functions of the AST node alone, and the engine
	// revisits the same nodes once per path.
	keyCache map[cast.Expr]string
	lockIDs  map[*cast.CallExpr]string

	bindings []Binding // memoized Bindings(); nil = stale
}

// Key identifies one (variable, lock) candidate pair.
type Key struct {
	Var, Lock string
}

// compareKeys orders pairs exactly as the former "v+\"@\"+l" string
// keys sorted, without building them: when one variable is a strict
// prefix of the other, the shorter key continues with '@' where the
// longer continues with the next byte of its variable (e.g. "a.b@…" <
// "a@…" because '.' < '@').
func compareKeys(a, b Key) int {
	switch {
	case a.Var == b.Var:
		return strings.Compare(a.Lock, b.Lock)
	case strings.HasPrefix(b.Var, a.Var):
		return int('@') - int(b.Var[len(a.Var)])
	case strings.HasPrefix(a.Var, b.Var):
		return int(a.Var[len(b.Var)]) - int('@')
	}
	return strings.Compare(a.Var, b.Var)
}

// New builds a checker for prog. The pre-pass derives the lock universe
// (arguments of acquire/release-shaped calls, or the callee name for
// argument-less locks like lock_kernel) and the shared-variable universe
// (file-scope variables that are not locks).
func New(prog *csem.Program, conv *latent.Conventions) *Checker {
	c := &Checker{
		conv:     conv,
		globals:  make(map[string]bool),
		locks:    make(map[string]bool),
		p0:       stats.DefaultP0,
		accesses: make(map[string]int),
		heldAt:   make(map[Key]int),
		must:     make(map[Key]bool),
		keyCache: make(map[cast.Expr]string),
		lockIDs:  make(map[*cast.CallExpr]string),
	}
	for _, fd := range prog.Funcs {
		cast.Inspect(fd.Body, func(n cast.Node) bool {
			call, ok := n.(*cast.CallExpr)
			if !ok {
				return true
			}
			name := cast.CalleeName(call)
			if name == "" {
				return true
			}
			if c.conv.IsLockAcquire(name) || c.conv.IsLockRelease(name) {
				if id := LockID(call); id != "" {
					c.locks[id] = true
				}
			}
			return true
		})
	}
	for name, vd := range prog.Globals {
		if c.locks[name] {
			continue
		}
		lower := strings.ToLower(name + " " + typeName(vd))
		if strings.Contains(lower, "lock") || strings.Contains(lower, "mutex") ||
			strings.Contains(lower, "sem") {
			continue
		}
		c.globals[name] = true
	}
	for _, fd := range prog.Funcs {
		c.promoteSingleVarSections(fd)
	}
	return c
}

func typeName(vd *cast.VarDecl) string {
	if vd.Type == nil {
		return ""
	}
	return vd.Type.TypeString()
}

// LockID extracts the lock identity from an acquire/release call: the
// first argument (stripping & and casts), or the callee name for
// argument-less global locks. Argless release names canonicalize onto
// their acquire ("unlock_kernel" and "lock_kernel" are the same lock).
func LockID(call *cast.CallExpr) string {
	if len(call.Args) == 0 {
		name := cast.CalleeName(call)
		if strings.HasPrefix(name, "un") {
			return name[2:]
		}
		return name
	}
	a := cast.StripParensAndCasts(call.Args[0])
	if u, ok := a.(*cast.UnaryExpr); ok && u.Op == ctoken.Amp {
		a = cast.StripParensAndCasts(u.X)
	}
	if k := exprKey(a); k != "" {
		return k
	}
	return cast.CalleeName(call)
}

func exprKey(e cast.Expr) string {
	switch x := e.(type) {
	case *cast.Ident:
		return x.Name
	case *cast.MemberExpr:
		base := exprKey(x.X)
		if base == "" {
			return ""
		}
		if x.Arrow {
			return base + "->" + x.Member
		}
		return base + "." + x.Member
	}
	return ""
}

// exprKeyCached memoizes exprKey per AST node: the engine revisits the
// same expressions once per path, and member-chain keys concatenate.
func (c *Checker) exprKeyCached(e cast.Expr) string {
	if k, ok := c.keyCache[e]; ok {
		return k
	}
	k := exprKey(e)
	c.keyCache[e] = k
	return k
}

// lockIDCached memoizes LockID per call node.
func (c *Checker) lockIDCached(call *cast.CallExpr) string {
	if id, ok := c.lockIDs[call]; ok {
		return id
	}
	id := LockID(call)
	c.lockIDs[call] = id
	return id
}

// baseOf returns the leading identifier of a slot key ("dev->cnt" -> "dev").
func baseOf(key string) string {
	for i := 0; i < len(key); i++ {
		switch key[i] {
		case '-', '.', '[':
			return key[:i]
		}
	}
	return key
}

// promoteSingleVarSections scans statement lists for
// acquire(l); <stmts>; release(l) spans whose statements access exactly
// one shared variable, promoting (v, l) to a MUST belief (§5).
func (c *Checker) promoteSingleVarSections(fd *cast.FuncDecl) {
	cast.Inspect(fd.Body, func(n cast.Node) bool {
		cs, ok := n.(*cast.CompoundStmt)
		if !ok {
			return true
		}
		for i := 0; i < len(cs.List); i++ {
			lock, lockID := c.lockCall(cs.List[i], true)
			if lock == nil {
				continue
			}
			vars := map[string]bool{}
			for j := i + 1; j < len(cs.List); j++ {
				if rel, relID := c.lockCall(cs.List[j], false); rel != nil && relID == lockID {
					if len(vars) == 1 {
						for v := range vars {
							c.must[Key{v, lockID}] = true
						}
					}
					break
				}
				c.collectShared(cs.List[j], vars)
			}
		}
		return true
	})
}

// lockCall returns the call and lock id if s is an expression statement
// calling an acquire (wantAcquire) or release routine.
func (c *Checker) lockCall(s cast.Stmt, wantAcquire bool) (*cast.CallExpr, string) {
	es, ok := s.(*cast.ExprStmt)
	if !ok || es.X == nil {
		return nil, ""
	}
	call, ok := es.X.(*cast.CallExpr)
	if !ok {
		return nil, ""
	}
	name := cast.CalleeName(call)
	if name == "" {
		return nil, ""
	}
	if wantAcquire && !c.conv.IsLockAcquire(name) {
		return nil, ""
	}
	if !wantAcquire && !c.conv.IsLockRelease(name) {
		return nil, ""
	}
	return call, LockID(call)
}

func (c *Checker) collectShared(s cast.Stmt, vars map[string]bool) {
	cast.Inspect(s, func(n cast.Node) bool {
		var k string
		switch x := n.(type) {
		case *cast.Ident:
			k = x.Name
		case *cast.MemberExpr:
			k = exprKey(x)
		default:
			return true
		}
		if k != "" && c.globals[baseOf(k)] && !c.locks[k] {
			vars[k] = true
		}
		return true
	})
	dropKeyPrefixes(vars)
}

// dropKeyPrefixes removes keys that are strict prefixes of other keys in
// the set: accessing dev.count touches "dev" too, but only the most
// specific slot is the shared datum.
func dropKeyPrefixes(keys map[string]bool) {
	for a := range keys {
		for b := range keys {
			if a == b {
				continue
			}
			if slotDerived(b, a) {
				delete(keys, a)
				break
			}
		}
	}
}

// slotDerived reports whether slot b extends slot a ("a.…", "a->…" or
// "a[…") — equivalent to prefix tests against a+".", a+"->" and a+"["
// without building the concatenated needles.
func slotDerived(b, a string) bool {
	if len(b) <= len(a) || !strings.HasPrefix(b, a) {
		return false
	}
	switch b[len(a)] {
	case '.', '[':
		return true
	case '-':
		return len(b) > len(a)+1 && b[len(a)+1] == '>'
	}
	return false
}

// ---------------------------------------------------------------------------
// engine.Checker implementation

// state is the per-path lock-set plus the transient per-statement access
// buffer (excluded from Key: statements never span memoization points).
// sig caches the held-set signature between lock events — lock
// operations are rare next to accesses, so the signature string is built
// once per (path, lock-set) instead of once per statement.
type state struct {
	held     map[string]bool
	stmtVars map[string]bool
	sig      string
	sigOK    bool
}

func (s *state) Clone() engine.State {
	ns := &state{sig: s.sig, sigOK: s.sigOK}
	if len(s.held) > 0 {
		ns.held = make(map[string]bool, len(s.held))
		for k := range s.held {
			ns.held[k] = true
		}
	}
	return ns
}

// sigFor returns the cached comma-terminated sorted signature of the
// held set ("" when no locks are held).
func (s *state) sigFor() string {
	if !s.sigOK {
		if len(s.held) == 0 {
			s.sig = ""
		} else {
			s.sig = string(s.AppendKey(nil))
		}
		s.sigOK = true
	}
	return s.sig
}

func (s *state) Key() string {
	if len(s.held) == 0 {
		return ""
	}
	return string(s.AppendKey(nil))
}

// AppendKey implements engine.AppendKeyer: the held set in ascending
// order, comma-terminated, built without allocating.
func (s *state) AppendKey(b []byte) []byte {
	for k := engine.NextKey(s.held, ""); k != ""; k = engine.NextKey(s.held, k) {
		b = append(append(b, k...), ',')
	}
	return b
}

// Name implements engine.Checker.
func (c *Checker) Name() string { return "lockvar" }

// SetP0 overrides the expected example probability used for z ranking
// (deviant's -p0 flag; defaults to stats.DefaultP0).
func (c *Checker) SetP0(p0 float64) { c.p0 = p0; c.bindings = nil }

// NewState implements engine.Checker. Beliefs about locks propagate
// backward as well as forward (§3.3: "unlock(l) implies a belief that l
// was locked before"): if the first lock event for l in the function is a
// release, l is believed held at entry.
func (c *Checker) NewState(fn *cast.FuncDecl) engine.State {
	var held, seen map[string]bool
	cast.Inspect(fn.Body, func(n cast.Node) bool {
		call, ok := n.(*cast.CallExpr)
		if !ok {
			return true
		}
		name := cast.CalleeName(call)
		if name == "" {
			return true
		}
		acq, rel := c.conv.IsLockAcquire(name), c.conv.IsLockRelease(name)
		if !acq && !rel {
			return true
		}
		id := LockID(call)
		if id == "" || seen[id] {
			return true
		}
		if seen == nil {
			seen = make(map[string]bool)
		}
		seen[id] = true
		if rel {
			if held == nil {
				held = make(map[string]bool)
			}
			held[id] = true
		}
		return true
	})
	return &state{held: held}
}

// Event implements engine.Checker.
func (c *Checker) Event(st engine.State, ev *engine.Event, ctx *engine.Ctx) {
	s := st.(*state)
	switch ev.Kind {
	case engine.EvCall:
		name := cast.CalleeName(ev.Call)
		if name == "" {
			return
		}
		isAcq, isRel := c.conv.IsLockAcquire(name), c.conv.IsLockRelease(name)
		if isAcq || isRel {
			// The lock operand expression is not a data access; drop any
			// uses this statement's argument evaluation buffered.
			for k := range s.stmtVars {
				delete(s.stmtVars, k)
			}
		}
		switch {
		case isAcq:
			if id := c.lockIDCached(ev.Call); id != "" {
				// §3.3: "As a side-effect, this checker could catch
				// double-lock and double-unlock errors" — lock(l) implies
				// the belief l was NOT locked before.
				if s.held[id] {
					ctx.Reports.AddMust("lockvar/double-lock",
						"do not acquire held lock "+id, ev.Pos, report.Serious, 0,
						fmt.Sprintf("%s acquires %q, which this path already holds", name, id))
				}
				if s.held == nil {
					s.held = make(map[string]bool)
				}
				s.held[id] = true
				s.sigOK = false
			}
		case isRel:
			if id := c.lockIDCached(ev.Call); id != "" {
				if !s.held[id] && c.locks[id] {
					ctx.Reports.AddMust("lockvar/double-unlock",
						"do not release unheld lock "+id, ev.Pos, report.Serious, 0,
						fmt.Sprintf("%s releases %q, which this path does not hold", name, id))
				}
				delete(s.held, id)
				s.sigOK = false
			}
		}
	case engine.EvUse:
		if k := c.exprKeyCached(cast.StripParensAndCasts(ev.Expr)); k != "" && c.globals[baseOf(k)] && !c.locks[k] {
			if s.stmtVars == nil {
				s.stmtVars = make(map[string]bool)
			}
			s.stmtVars[k] = true
		}
	case engine.EvAssign:
		if k := c.exprKeyCached(cast.StripParensAndCasts(ev.LHS)); k != "" && c.globals[baseOf(k)] && !c.locks[k] {
			if s.stmtVars == nil {
				s.stmtVars = make(map[string]bool)
			}
			s.stmtVars[k] = true
		}
	case engine.EvStmtEnd:
		dropKeyPrefixes(s.stmtVars)
		if len(s.stmtVars) > 0 {
			c.bindings = nil
		}
		sig := s.sigFor()
		for v := range s.stmtVars {
			c.accesses[v]++
			for l := range s.held {
				c.heldAt[Key{v, l}]++
			}
			c.log.Add(v, sig, ev.Pos)
		}
		for v := range s.stmtVars {
			delete(s.stmtVars, v)
		}
	}
}

// Branch implements engine.Checker (lock state is unaffected by branches).
func (c *Checker) Branch(engine.State, cast.Expr, bool, *engine.Ctx) {}

// FuncEnd implements engine.Checker.
func (c *Checker) FuncEnd(engine.State, *engine.Ctx) {}

// Fork returns a checker for one worker's shard of functions. The
// pre-pass products (lock and shared-variable universes, promoted MUST
// pairs) are shared read-only; only the evidence accumulators are fresh.
func (c *Checker) Fork() *Checker {
	return &Checker{
		conv:     c.conv,
		globals:  c.globals,
		locks:    c.locks,
		p0:       c.p0,
		accesses: make(map[string]int),
		heldAt:   make(map[Key]int),
		must:     c.must,
		keyCache: make(map[cast.Expr]string),
		lockIDs:  make(map[*cast.CallExpr]string),
	}
}

// FactsDigest hashes the pre-pass facts New derived from the program: the
// lock universe, the shared-variable universe and the promoted MUST
// pairs. Traversal evidence depends on nothing else the program-wide
// pre-pass knows, so a partial counted under one digest folds into any
// checker with the same digest.
func (c *Checker) FactsDigest() string {
	h := sha256.New()
	for _, part := range [][]string{sortedKeys(c.locks), sortedKeys(c.globals)} {
		for _, k := range part {
			h.Write([]byte(k))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	must := make([]Key, 0, len(c.must))
	for k := range c.must {
		must = append(must, k)
	}
	sort.Slice(must, func(i, j int) bool { return compareKeys(must[i], must[j]) < 0 })
	for _, k := range must {
		h.Write([]byte(k.Var + "\x00" + k.Lock + "\x00"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Partial is the evidence a run of the checker over some functions
// counted — per-variable accesses, per-pair held accesses and the access
// site log — sharing no memory with the checker that counted it.
type Partial struct {
	accesses []stats.Count[string]
	heldAt   []stats.Count[Key]
	sites    []stats.SetRec
}

// TakePartial moves the evidence c counted since the last take into an
// exact-size Partial (empty when there is none) and resets c's
// accumulators, keeping their capacity and c's key caches.
func (c *Checker) TakePartial() Partial {
	c.bindings = nil
	return Partial{stats.TakeCounts(c.accesses), stats.TakeCounts(c.heldAt), c.log.Take()}
}

// Fold adds p's evidence to c without modifying p: counters sum, and the
// site log appends p's records in order, re-applying the per-key cap — so
// folding per-function partials in function order reproduces the serial
// evidence.
func (c *Checker) Fold(p Partial) {
	c.bindings = nil
	stats.AddCounts(c.accesses, p.accesses)
	stats.AddCounts(c.heldAt, p.heldAt)
	c.log.AddRecs(p.sites)
}

// Merge folds a fork's evidence into c (see Fold) and empties the fork.
func (c *Checker) Merge(o *Checker) { c.Fold(o.TakePartial()) }

// ---------------------------------------------------------------------------
// results

// Binding reports the evidence for one (variable, lock) candidate.
type Binding struct {
	stats.Instance[Key]
	Must bool // promoted by the single-variable critical-section rule
}

// Bindings returns the candidate (v, l) instances — the pairs with at
// least one example, i.e. v accessed while l held — ranked by z, ties in
// compareKeys order. The ranking is memoized; new evidence via Event or
// Merge invalidates it. Results-stage callers (Finish, SpuriousLocks,
// the pipeline's LockBindings) therefore share one sort.
func (c *Checker) Bindings() []Binding {
	if c.bindings != nil {
		return c.bindings
	}
	ins := make([]stats.Instance[Key], 0, len(c.heldAt))
	for k, held := range c.heldAt {
		n := c.accesses[k.Var]
		ins = append(ins, stats.Instance[Key]{Key: k, Counter: stats.Counter{Checks: n, Errors: n - held}})
	}
	out := make([]Binding, len(ins))
	for i, in := range stats.Rank(ins, stats.Order[Key]{P0: c.p0, Compare: compareKeys}) {
		out[i] = Binding{Instance: in, Must: c.must[in.Key]}
	}
	c.bindings = out
	return out
}

// Counter returns the evidence counter for (v, l) — exposed for the
// Figure 1 reproduction.
func (c *Checker) Counter(v, l string) stats.Counter {
	n := c.accesses[v]
	if n == 0 {
		return stats.Counter{}
	}
	return stats.Counter{Checks: n, Errors: n - c.heldAt[Key{v, l}]}
}

// SpuriousLocks returns locks for which no variable reaches minZ — in
// particular every lock never held around a shared access, which has no
// binding at all: either the analysis misunderstands the lock binding or
// the program has a serious error set (the non-spurious principle, §5).
func (c *Checker) SpuriousLocks(minZ float64) []string {
	best := make(map[string]float64)
	for l := range c.locks {
		best[l] = -1 << 30
	}
	for _, b := range c.Bindings() {
		if b.Z > best[b.Key.Lock] {
			best[b.Key.Lock] = b.Z
		}
	}
	var out []string
	for l, z := range best {
		if z < minZ {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// Finish emits ranked error reports: every unprotected access of v for a
// plausible (v, l) binding. Promoted MUST pairs report as definite errors.
func (c *Checker) Finish(col *report.Collector) {
	// Every binding is plausible — pairs never held while used are
	// coincidences, not protection protocols, and Bindings never
	// enumerates them. One pass over the site log, in event order,
	// distributes the reportable bindings' unprotected accesses.
	bindings := c.Bindings()
	var rows []int
	var queries []stats.SetKey
	for i := range bindings {
		if b := &bindings[i]; b.Reportable(stats.AnyEvidence) {
			rows = append(rows, i)
			queries = append(queries, stats.SetKey{Slot: b.Key.Var, Member: b.Key.Lock})
		}
	}
	if len(rows) == 0 {
		return
	}
	sites := c.log.Sites(queries)
	for j, i := range rows {
		b := bindings[i]
		if len(sites[j]) == 0 {
			continue
		}
		rule := fmt.Sprintf("variable %s must be protected by lock %s", b.Key.Var, b.Key.Lock)
		msg := fmt.Sprintf("%s accessed without %s held (protected %d/%d times elsewhere)",
			b.Key.Var, b.Key.Lock, b.Examples(), b.Checks)
		if !b.Must {
			col.AddStats("lockvar", rule, sites[j], b.Score(), b.Counter, msg)
			continue
		}
		for _, pos := range sites[j] {
			col.AddMust("lockvar", rule, pos, report.Serious, 0, msg+" [promoted: sole variable of a critical section]")
		}
	}
}
