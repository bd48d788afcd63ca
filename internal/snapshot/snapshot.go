// Package snapshot is a content-addressed cache of per-translation-unit
// frontend results, the substrate of deviantd's incremental re-analysis.
//
// The analysis workflow the paper describes is iterative: checkers re-run
// after every edit and after every inspected report, and §4.2's
// cross-version diffing analyzes near-identical trees back to back. Most
// of each run's frontend work — preprocessing, parsing, CFG construction —
// is therefore identical to the previous run's. A Store keys every unit's
// frontend artifact (parse tree, parse diagnostics, line count, and the
// per-function CFGs built from that tree) by the unit's *transitive
// content digest*: a hash of the unit's own bytes, the bytes of every file
// its #includes resolved to, the include search candidates that were
// probed and found missing (creating one would shadow a resolved include),
// and a caller-supplied configuration fingerprint. A warm lookup re-hashes
// those inputs against the current file provider; any drift in any of them
// changes the key and forces a cold re-parse of exactly that unit.
//
// Invalidation rules (what forces a unit to re-parse):
//
//  1. the unit's own content changed;
//  2. the content of any transitively included file changed;
//  3. a file appeared at a path that was previously probed and missing
//     (include shadowing);
//  4. the configuration fingerprint changed — include dirs, -D defines,
//     crash-path pruning, or the latent conventions;
//  5. the entry was evicted (the store holds at most MaxUnits artifacts,
//     least recently used first out).
//
// Artifacts are shared, not copied: the parse tree and CFGs are immutable
// after construction (the parallel pipeline already shares them across
// checker goroutines), so one cached artifact may serve many concurrent
// requests.
//
// An artifact also caches checker partials: what each of its functions
// contributed to each per-function checker (see Artifact.Partial). A
// partial lives in a slot (one per checker) under a key naming everything
// beyond the artifact's own inputs that its traversal read — the
// checker's traversal configuration, and for lockvar the program-wide
// pre-pass facts. Partial invalidation rules:
//
//  1. everything that invalidates the artifact invalidates its partials;
//  2. a partial is served only under its exact slot key; storing a slot
//     under a new key drops every partial of that slot on the artifact
//     (a lockvar fact change rebuilds every lockvar partial, no other);
//  3. one version per unit holds partials: when a run looks up or adds a
//     version of (fingerprint, unit), every other resident version of
//     that unit drops its partials and stops accepting new ones. Graphs
//     and parse trees are unaffected. Superseded versions stay resident
//     until the LRU bound evicts them, so without this rule every edit
//     would pin another unit's worth of partials.
//
// Partials are immutable once stored: concurrent runs fold the same ones.
package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"deviant/internal/cast"
	"deviant/internal/cfg"
	"deviant/internal/cpp"
	"deviant/internal/ctoken"
)

// DefaultMaxUnits bounds a Store's resident artifacts when NewStore is
// given no explicit capacity.
const DefaultMaxUnits = 1024

// Artifact is everything the frontend produced for one translation unit.
type Artifact struct {
	// File is the unit's parse tree.
	File *cast.File
	// ParseErrors are the unit's preprocessing and parse diagnostics.
	ParseErrors []error
	// Lines is the unit's source line count.
	Lines int

	// Tokens, when non-nil, is the unit's preprocessed token stream —
	// the serialization form shared by the disk tier and the distributed
	// shard wire format. Parse trees share typed pointers and CFGs
	// contain cycles, neither of which survives gob; tokens are flat
	// exported data and reparse deterministically. The frontend sets
	// this only when the owning store is persistent or retains tokens
	// (see SetRetainTokens); without retention Add clears it once the
	// disk entry is written, so resident artifacts stay lean. Readers
	// racing that clear must go through TokensRef.
	Tokens []ctoken.Token

	mu     sync.Mutex
	graphs map[string]*cfg.Graph
	// holder marks the one resident version of its unit that holds
	// partials (rule 3 above); parts is indexed by slot.
	holder bool
	parts  []partSlot
}

// partSlot is one checker's partials on an artifact: its key and one cell
// per function definition of the unit, in declaration order. A cell is a
// partial and the word stored with it; noPartial marks an empty one.
type partSlot struct {
	key   string
	fns   []any
	words []uint64
}

// TokensRef returns the artifact's retained token stream (nil when the
// owning store does not retain tokens). It takes the artifact lock so a
// reader cannot race the clear in Store.Add on a non-retaining store.
func (a *Artifact) TokensRef() []ctoken.Token {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.Tokens
}

// Graph returns the cached CFG for the named function, if one was built
// from this artifact's tree.
func (a *Artifact) Graph(fn string) (*cfg.Graph, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	g, ok := a.graphs[fn]
	return g, ok
}

// SetGraph records the CFG built for the named function. The graph must
// be immutable from here on: it may be served to concurrent runs.
func (a *Artifact) SetGraph(fn string, g *cfg.Graph) {
	a.mu.Lock()
	if a.graphs == nil {
		a.graphs = make(map[string]*cfg.Graph)
	}
	a.graphs[fn] = g
	a.mu.Unlock()
}

// Partial returns the partial cached for the unit's fn-th function
// definition (FuncDecls with a body, counted in declaration order) in
// slot under key, with the word stored beside it. ok is false when
// nothing is cached there under key. A cached partial may be nil: a
// function that contributed nothing but its word.
func (a *Artifact) Partial(slot int, key string, fn int) (p any, word uint64, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if slot >= len(a.parts) || a.parts[slot].key != key || fn >= len(a.parts[slot].fns) {
		return nil, 0, false
	}
	ps := &a.parts[slot]
	if p = ps.fns[fn]; p == noPartial {
		return nil, 0, false
	}
	return p, ps.words[fn], true
}

// noPartial marks an empty cell: a stored nil partial is a valid answer.
var noPartial any = new(byte)

// SetPartial caches p and word for the unit's fn-th function definition
// in slot under key, out of nfns definitions. The word holds a small
// value beside p without an allocation (core packs traversal statistics
// into it, so a function that contributed nothing else costs no object).
// A different key already on the slot is dropped with every partial under
// it. p must be immutable from here on: it may be served to concurrent
// runs. An artifact that does not hold its unit's partials (rule 3 in the
// package doc) ignores the call.
func (a *Artifact) SetPartial(slot int, key string, fn, nfns int, p any, word uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.holder || fn >= nfns {
		return
	}
	if slot >= len(a.parts) {
		a.parts = append(a.parts, make([]partSlot, slot+1-len(a.parts))...)
	}
	ps := &a.parts[slot]
	if ps.key != key || len(ps.fns) != nfns {
		ps.key = key
		ps.fns = make([]any, nfns)
		ps.words = make([]uint64, nfns)
		for i := range ps.fns {
			ps.fns[i] = noPartial
		}
	}
	ps.fns[fn], ps.words[fn] = p, word
}

// PartialCount returns the number of partials cached on this artifact.
func (a *Artifact) PartialCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, ps := range a.parts {
		for _, p := range ps.fns {
			if p != noPartial {
				n++
			}
		}
	}
	return n
}

// hold makes a the partial holder of its unit, or (on false) drops its
// partials and refuses new ones.
func (a *Artifact) hold(on bool) {
	a.mu.Lock()
	a.holder = on
	if !on {
		a.parts = nil
	}
	a.mu.Unlock()
}

// GraphCount returns the number of CFGs cached on this artifact.
func (a *Artifact) GraphCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.graphs)
}

// Stats is a point-in-time snapshot of store effectiveness.
type Stats struct {
	UnitHits   int64 // lookups answered from the store
	UnitMisses int64 // lookups that forced a cold frontend run
	Evictions  int64 // artifacts dropped by the LRU bound
	Units      int   // artifacts currently resident
	Graphs     int   // CFGs currently resident across all artifacts
	Partials   int   // checker partials currently resident across all artifacts

	// LookupNs is the cumulative wall clock spent in Lookup — dominated
	// by re-hashing each unit's transitive content closure, which is the
	// price of a warm hit. Exposed so /metrics can show when digest
	// verification, not analysis, is the bottleneck.
	LookupNs int64

	// Disk tier counters, all zero when no disk is attached. DiskCorrupt
	// counts entries whose checksum failed — at startup scan or at read
	// time — and were evicted for recomputation (self-healing).
	DiskEntries int   // entries currently indexed on disk
	DiskHits    int64 // lookups answered by promoting a disk entry
	DiskWrites  int64 // entries persisted
	DiskCorrupt int64 // corrupt/torn entries detected and evicted
}

// RunStats reports what one analysis run reused from a Store. It is
// carried on core.Result so callers (the -stats flag, the service's
// response body and /metrics) can see incrementality working.
type RunStats struct {
	Enabled      bool `json:"enabled"`
	UnitsReused  int  `json:"units_reused"`
	UnitsParsed  int  `json:"units_parsed"`
	GraphsReused int  `json:"graphs_reused"`
	GraphsBuilt  int  `json:"graphs_built"`
	// PartialsReused and PartialsBuilt count (function, checker) partials
	// served from the store and computed by traversal.
	PartialsReused int `json:"partials_reused"`
	PartialsBuilt  int `json:"partials_built"`
}

// dep is one file the expansion of a unit consulted: either a resolved
// include (present, digest matters) or a probed-and-missing search
// candidate (absent, existence matters).
type dep struct {
	path    string
	present bool
}

// depList remembers how a (fingerprint, unit, unit-digest) expanded last
// time, so a warm lookup knows which files to hash.
type depList struct {
	deps []dep
	key  string // full transitive key the deps hashed to when recorded
}

type entry struct {
	art     *Artifact
	depKey  string // owning depList, for eviction cleanup
	unitKey string // fingerprint|unit, the key of holders
	lastUse uint64
}

// Store is the content-addressed artifact cache. All methods are safe for
// concurrent use.
type Store struct {
	mu       sync.Mutex
	maxUnits int
	entries  map[string]*entry    // transitive key -> artifact
	depLists map[string]*depList  // fingerprint|unit|unitDigest -> last dep set
	holders  map[string]*Artifact // fingerprint|unit -> the version holding partials
	tick     uint64

	// disk, when non-nil, is the crash-safe persistent tier: entries
	// evicted from (or never resident in) memory can still be answered
	// from disk, including across process restarts. diskIdx holds the
	// transitive keys with an entry on disk.
	disk    *disk
	diskIdx map[string]bool

	// retainTokens keeps each artifact's preprocessed token stream
	// resident instead of dropping it after the disk write. Fleet
	// workers turn this on so a warm shard hit can ship its tokens
	// without re-preprocessing the unit.
	retainTokens bool

	hits, misses, evictions           atomic.Int64
	diskHits, diskWrites, diskCorrupt atomic.Int64
	lookupNs                          atomic.Int64 // cumulative Lookup wall clock
}

// NewStore returns an empty store holding at most maxUnits artifacts
// (<= 0 means DefaultMaxUnits).
func NewStore(maxUnits int) *Store {
	if maxUnits <= 0 {
		maxUnits = DefaultMaxUnits
	}
	return &Store{
		maxUnits: maxUnits,
		entries:  make(map[string]*entry),
		depLists: make(map[string]*depList),
		holders:  make(map[string]*Artifact),
	}
}

// Fingerprint hashes an arbitrary list of configuration strings into a
// cache-key component. Callers fold in everything that changes frontend
// or CFG output: include dirs, defines, pruning, conventions.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digest(content []byte) string {
	sum := sha256.Sum256(content)
	return hex.EncodeToString(sum[:])
}

// transitiveKey hashes the full input closure of one unit against the
// current provider state. ok is false when a recorded dependency drifted
// in a way that cannot hash (a previously read file vanished, or a
// previously missing probe now resolves) — the caller must treat that as
// a miss.
func transitiveKey(fs cpp.FileProvider, fingerprint, unit, unitDigest string, deps []dep) (string, bool) {
	h := sha256.New()
	w := func(s string) { h.Write([]byte(s)); h.Write([]byte{0}) }
	w(fingerprint)
	w(unit)
	w(unitDigest)
	for _, d := range deps {
		src, err := fs.ReadFile(d.path)
		if d.present {
			if err != nil {
				return "", false
			}
			w("+" + d.path)
			w(digest(src))
		} else {
			if err == nil {
				return "", false
			}
			w("-" + d.path)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

func depKeyOf(fingerprint, unit, unitDigest string) string {
	return unitKeyOf(fingerprint, unit) + "\x00" + unitDigest
}

func unitKeyOf(fingerprint, unit string) string { return fingerprint + "\x00" + unit }

// holdLocked makes e's artifact the partial holder of its unit, dropping
// the previous holder's partials. Callers hold s.mu.
func (s *Store) holdLocked(e *entry) {
	if h := s.holders[e.unitKey]; h != e.art {
		if h != nil {
			h.hold(false)
		}
		e.art.hold(true)
		s.holders[e.unitKey] = e.art
	}
}

// Lookup returns the cached artifact for unit if the unit's transitive
// content closure — as recorded by the last Add for this (fingerprint,
// unit, content) — hashes to a resident entry under the current provider
// state.
func (s *Store) Lookup(fs cpp.FileProvider, fingerprint, unit string) (*Artifact, bool) {
	t0 := time.Now()
	defer func() { s.lookupNs.Add(int64(time.Since(t0))) }()
	src, err := fs.ReadFile(unit)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	dk := depKeyOf(fingerprint, unit, digest(src))
	s.mu.Lock()
	dl, ok := s.depLists[dk]
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	// Hash the dependency closure outside the lock: ReadFile may hit disk.
	key, ok := transitiveKey(fs, fingerprint, unit, digest(src), dl.deps)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.tick++
		e.lastUse = s.tick
		s.holdLocked(e)
		s.mu.Unlock()
		s.hits.Add(1)
		return e.art, true
	}
	retain := s.retainTokens
	onDisk := s.disk != nil && s.diskIdx[key]
	s.mu.Unlock()
	if !onDisk {
		s.misses.Add(1)
		return nil, false
	}
	// Promote from the disk tier. The entry's checksum is re-verified at
	// read time; a torn or corrupt entry is evicted so the cold re-parse
	// that follows recomputes and rewrites it (self-healing).
	art, ok := s.disk.load(key, retain)
	if !ok {
		s.diskCorrupt.Add(1)
		s.disk.remove(key)
		s.mu.Lock()
		delete(s.diskIdx, key)
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	s.diskHits.Add(1)
	s.hits.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, exists := s.entries[key]; exists {
		// Another goroutine promoted this key first; serve its artifact
		// so concurrent runs share one tree.
		s.tick++
		e.lastUse = s.tick
		s.holdLocked(e)
		return e.art, true
	}
	s.tick++
	e := &entry{art: art, depKey: dk, unitKey: unitKeyOf(fingerprint, unit), lastUse: s.tick}
	s.entries[key] = e
	s.holdLocked(e)
	s.evictLocked()
	return art, true
}

// Add records the artifact produced by a cold frontend run over unit.
// includes are the resolved transitive include paths and missedProbes the
// probed-and-absent search candidates, both as reported by the
// preprocessor. The provider must still hold the bytes the frontend read
// (providers are per-request snapshots; nothing mutates them mid-run).
func (s *Store) Add(fs cpp.FileProvider, fingerprint, unit string, includes, missedProbes []string, art *Artifact) {
	src, err := fs.ReadFile(unit)
	if err != nil {
		return
	}
	deps := make([]dep, 0, len(includes)+len(missedProbes))
	for _, p := range includes {
		deps = append(deps, dep{path: p, present: true})
	}
	for _, p := range missedProbes {
		deps = append(deps, dep{path: p, present: false})
	}
	unitDigest := digest(src)
	key, ok := transitiveKey(fs, fingerprint, unit, unitDigest, deps)
	if !ok {
		return
	}
	dk := depKeyOf(fingerprint, unit, unitDigest)
	s.mu.Lock()
	s.tick++
	s.depLists[dk] = &depList{deps: deps, key: key}
	e, exists := s.entries[key]
	if !exists {
		e = &entry{art: art, depKey: dk, unitKey: unitKeyOf(fingerprint, unit), lastUse: s.tick}
		s.entries[key] = e
	} else {
		e.lastUse = s.tick
	}
	s.holdLocked(e)
	if !exists {
		s.evictLocked()
	}
	d, retain := s.disk, s.retainTokens
	s.mu.Unlock()

	// Persist outside the lock: the write is temp-file + fsync + atomic
	// rename, so concurrent writers of the same key converge on one
	// complete entry and a crash at any instant leaves either the old
	// entry, the new entry, or a stripped temp file — never a torn one.
	if d != nil && art.Tokens != nil {
		if err := d.write(key, fingerprint, unit, unitDigest, deps, art); err == nil {
			s.diskWrites.Add(1)
			s.mu.Lock()
			s.diskIdx[key] = true
			s.mu.Unlock()
		}
		if !retain {
			// Clear under the artifact lock: the entry is already
			// published, so a concurrent TokensRef may be reading.
			art.mu.Lock()
			art.Tokens = nil
			art.mu.Unlock()
		}
	}
}

// SetRetainTokens controls whether resident artifacts keep their
// preprocessed token streams (see Artifact.Tokens). Off by default;
// fleet workers enable it so warm shard lookups can serve tokens.
func (s *Store) SetRetainTokens(on bool) {
	s.mu.Lock()
	s.retainTokens = on
	s.mu.Unlock()
}

// RetainsTokens reports whether the store keeps token streams resident.
func (s *Store) RetainsTokens() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retainTokens
}

// evictLocked drops least-recently-used entries until the store is within
// bounds. Callers hold s.mu.
func (s *Store) evictLocked() {
	for len(s.entries) > s.maxUnits {
		var victimKey string
		var victim *entry
		for k, e := range s.entries {
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		if dl, ok := s.depLists[victim.depKey]; ok && dl.key == victimKey {
			// The dep list stays if the disk tier still holds the entry:
			// it is the map from content to key that lets a later lookup
			// find the on-disk artifact again.
			if !s.diskIdx[victimKey] {
				delete(s.depLists, victim.depKey)
			}
		}
		if s.holders[victim.unitKey] == victim.art {
			delete(s.holders, victim.unitKey)
			victim.art.hold(false)
		}
		delete(s.entries, victimKey)
		s.evictions.Add(1)
	}
}

// Stats returns current counters and occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	units := len(s.entries)
	diskEntries := len(s.diskIdx)
	graphs, partials := 0, 0
	for _, e := range s.entries {
		graphs += e.art.GraphCount()
		partials += e.art.PartialCount()
	}
	s.mu.Unlock()
	return Stats{
		UnitHits:    s.hits.Load(),
		UnitMisses:  s.misses.Load(),
		Evictions:   s.evictions.Load(),
		Units:       units,
		Graphs:      graphs,
		Partials:    partials,
		LookupNs:    s.lookupNs.Load(),
		DiskEntries: diskEntries,
		DiskHits:    s.diskHits.Load(),
		DiskWrites:  s.diskWrites.Load(),
		DiskCorrupt: s.diskCorrupt.Load(),
	}
}

// Flush empties the store, including any attached disk tier (counters
// are preserved). Used when a caller knows the world changed in a way
// the digests cannot see.
func (s *Store) Flush() {
	s.mu.Lock()
	for _, h := range s.holders {
		h.hold(false)
	}
	s.entries = make(map[string]*entry)
	s.depLists = make(map[string]*depList)
	s.holders = make(map[string]*Artifact)
	var keys []string
	d := s.disk
	if d != nil {
		keys = make([]string, 0, len(s.diskIdx))
		for k := range s.diskIdx {
			keys = append(keys, k)
		}
		s.diskIdx = make(map[string]bool)
	}
	s.mu.Unlock()
	for _, k := range keys {
		d.remove(k)
	}
}

// AttachDisk backs the store with a crash-safe persistent tier rooted
// at dir (created if absent). Existing entries are scanned: checksums
// verified, torn or corrupt files evicted (counted in Stats.DiskCorrupt)
// and temp files from crashed writers removed; surviving entries seed
// the dependency index so lookups hit disk across process restarts.
func (s *Store) AttachDisk(dir string) error {
	d, scanned, corrupt, err := openDisk(dir)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.disk = d
	s.diskIdx = make(map[string]bool, len(scanned))
	for _, e := range scanned {
		s.depLists[e.depKey] = &depList{deps: e.deps, key: e.key}
		s.diskIdx[e.key] = true
	}
	s.mu.Unlock()
	s.diskCorrupt.Add(corrupt)
	return nil
}

// Persistent reports whether a disk tier is attached. The frontend uses
// it to decide whether to hand Add the unit's token stream (the disk
// serialization form) along with the parse tree.
func (s *Store) Persistent() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.disk != nil
}
