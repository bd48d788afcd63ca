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
	"fmt"
	"slices"
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

// maxSitesPerPair bounds recorded error sites per (v, l) instance.
const maxSitesPerPair = 64

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
	heldAt   map[vl]int     // (v, l) → accesses of v made while l held (= Examples)
	must     map[vl]bool    // promoted MUST pairs (single-var critical sections)
	mustSite map[vl]ctoken.Pos

	// Unprotected access sites, as one flat event-ordered log keyed by
	// (v, held-set signature): the record is an error site for every
	// candidate (v, l) whose lock is absent from the signature. siteN
	// caps records per (v, signature) — retaining each signature's first
	// maxSitesPerPair records retains every pair's first
	// maxSitesPerPair matching records, which is all reporting reads.
	siteLog []siteRec
	siteN   map[vl]int // key: {v, sig}

	// Fork-local hot-path caches (single goroutine each): slot keys and
	// lock ids are functions of the AST node alone, and the engine
	// revisits the same nodes once per path.
	keyCache map[cast.Expr]string
	lockIDs  map[*cast.CallExpr]string

	bindings []Binding // memoized Bindings(); nil = stale
}

// vl identifies one (variable, lock) candidate pair. In the site log an
// empty lock means the record applies to every pair of the variable.
type vl struct {
	v, l string
}

// siteRec is one recorded shared-variable access with the lock-set held
// at the time, as the state's comma-terminated sorted signature (empty =
// no locks held). Log position is event order (fork order then
// within-fork order after Merge).
type siteRec struct {
	v, sig string
	pos    ctoken.Pos
}

// sigHas reports whether the comma-terminated signature contains l as a
// whole token.
func sigHas(sig, l string) bool {
	for len(sig) > 0 {
		i := strings.IndexByte(sig, ',')
		if sig[:i] == l {
			return true
		}
		sig = sig[i+1:]
	}
	return false
}

// vlLess orders pairs exactly as the former "v+\"@\"+l" string keys
// sorted, without building them: when one variable is a strict prefix of
// the other, the shorter key continues with '@' where the longer
// continues with the next byte of its variable (e.g. "a.b@…" < "a@…"
// because '.' < '@').
func vlLess(a, b vl) bool {
	if a.v != b.v {
		if strings.HasPrefix(b.v, a.v) {
			return '@' < b.v[len(a.v)]
		}
		if strings.HasPrefix(a.v, b.v) {
			return a.v[len(b.v)] < '@'
		}
		return a.v < b.v
	}
	return a.l < b.l
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
		heldAt:   make(map[vl]int),
		must:     make(map[vl]bool),
		mustSite: make(map[vl]ctoken.Pos),
		siteN:    make(map[vl]int),
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
							key := vl{v, lockID}
							c.must[key] = true
							c.mustSite[key] = lock.Lparen
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
				c.heldAt[vl{v, l}]++
			}
			k := vl{v, sig}
			if c.siteN[k] < maxSitesPerPair {
				c.siteN[k]++
				c.siteLog = append(c.siteLog, siteRec{v: v, sig: sig, pos: ev.Pos})
			}
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
		heldAt:   make(map[vl]int),
		must:     c.must,
		mustSite: c.mustSite,
		siteN:    make(map[vl]int),
		keyCache: make(map[cast.Expr]string),
		lockIDs:  make(map[*cast.CallExpr]string),
	}
}

// Merge folds a fork's evidence into c: counters sum; the site logs
// concatenate in merge order (fork order, then within-fork event order),
// re-applying the per-key cap.
func (c *Checker) Merge(o *Checker) {
	c.bindings = nil
	if len(c.accesses) == 0 && len(c.siteLog) == 0 {
		// First fork folds into an empty root (always the case for the
		// serial pipeline): adopt its accumulators instead of re-building
		// them one insert at a time.
		c.accesses, c.heldAt, c.siteN, c.siteLog = o.accesses, o.heldAt, o.siteN, o.siteLog
		return
	}
	for v, n := range o.accesses {
		c.accesses[v] += n
	}
	for k, n := range o.heldAt {
		c.heldAt[k] += n
	}
	for _, r := range o.siteLog {
		k := vl{r.v, r.sig}
		if c.siteN[k] < maxSitesPerPair {
			c.siteN[k]++
			c.siteLog = append(c.siteLog, r)
		}
	}
}

// ---------------------------------------------------------------------------
// results

// Binding reports the evidence for one (variable, lock) candidate.
type Binding struct {
	Var, Lock string
	stats.Counter
	Z    float64
	Must bool // promoted by the single-variable critical-section rule
}

// Bindings returns the candidate (v, l) instances — the pairs with at
// least one example, i.e. v accessed while l held — ranked by z, ties in
// vlLess order. The ranking is memoized; new evidence via Event or Merge
// invalidates it. Results-stage callers (Finish, SpuriousLocks, the
// pipeline's LockBindings) therefore share one sort.
func (c *Checker) Bindings() []Binding {
	if c.bindings != nil {
		return c.bindings
	}
	out := make([]Binding, 0, len(c.heldAt))
	for k, held := range c.heldAt {
		n := c.accesses[k.v]
		cnt := stats.Counter{Checks: n, Errors: n - held}
		out = append(out, Binding{
			Var: k.v, Lock: k.l, Counter: cnt, Z: cnt.Z(c.p0), Must: c.must[k],
		})
	}
	slices.SortFunc(out, func(a, b Binding) int {
		if a.Z != b.Z {
			if a.Z > b.Z {
				return -1
			}
			return 1
		}
		if vlLess(vl{a.Var, a.Lock}, vl{b.Var, b.Lock}) {
			return -1
		}
		return 1
	})
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
	return stats.Counter{Checks: n, Errors: n - c.heldAt[vl{v, l}]}
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
		if b.Z > best[b.Lock] {
			best[b.Lock] = b.Z
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
	// Reportable bindings: errors exist. Every binding is plausible —
	// pairs never held while used are coincidences, not protection
	// protocols, and Bindings never enumerates them. Index them by
	// variable first so one pass over the site log, in event order,
	// distributes every binding's first maxSitesPerPair unprotected
	// accesses.
	bindings := c.Bindings()
	byVar := make(map[string][]int)
	nRep := 0
	for i := range bindings {
		b := &bindings[i]
		if b.Errors == 0 {
			continue
		}
		byVar[b.Var] = append(byVar[b.Var], i)
		nRep++
	}
	if nRep == 0 {
		return
	}
	sites := make(map[int][]ctoken.Pos, nRep)
	for _, r := range c.siteLog {
		for _, i := range byVar[r.v] {
			if len(sites[i]) < maxSitesPerPair && !sigHas(r.sig, bindings[i].Lock) {
				sites[i] = append(sites[i], r.pos)
			}
		}
	}
	for i := range bindings {
		b := &bindings[i]
		if b.Errors == 0 {
			continue
		}
		rule := fmt.Sprintf("variable %s must be protected by lock %s", b.Var, b.Lock)
		for _, pos := range sites[i] {
			msg := fmt.Sprintf("%s accessed without %s held (protected %d/%d times elsewhere)",
				b.Var, b.Lock, b.Examples(), b.Checks)
			if b.Must {
				col.AddMust("lockvar", rule, pos, report.Serious, 0, msg+" [promoted: sole variable of a critical section]")
			} else {
				col.AddStat("lockvar", rule, pos, b.Z, b.Checks, b.Examples(), msg)
			}
		}
	}
}
