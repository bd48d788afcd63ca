// The snapshot store's persistent tier: one file per cached unit, in
// the crash-safe record format deviantd's job log also uses
// (internal/recfile) — written atomically and verified by a
// whole-payload SHA-256 checksum on every read. Corruption — a torn
// write from a crash, a flipped bit, a truncated file — is detected,
// the entry evicted, and the unit recomputed on the next cold run, so
// the cache self-heals without operator intervention.
//
// What gets persisted is deliberately not the parse tree: ASTs share
// typed pointers whose identity gob cannot preserve, and CFGs contain
// cycles gob cannot encode. The unit's preprocessed token stream is
// flat exported data that round-trips exactly, and reparsing it is
// deterministic — warm-from-disk output is byte-identical to cold.
package snapshot

import (
	"errors"

	"deviant/internal/cparse"
	"deviant/internal/ctoken"
	"deviant/internal/recfile"
)

// diskMagic leads every entry file; a file without it is not ours.
var diskMagic = []byte("DVSNAP1\n")

// tmpPrefix marks in-progress writes. A crash between create and rename
// leaves one of these behind; openDisk sweeps them.
const tmpPrefix = recfile.TmpPrefix

const entrySuffix = ".art"

// diskDep mirrors dep with exported fields for gob.
type diskDep struct {
	Path    string
	Present bool
}

// diskEntry is the serialized form of one cached unit: enough metadata
// to rebuild the store's dependency index at startup, plus the token
// stream and rendered diagnostics to rehydrate the artifact.
type diskEntry struct {
	Fingerprint string
	Unit        string
	UnitDigest  string
	Key         string
	Deps        []diskDep
	Lines       int
	ParseErrors []string
	Tokens      []ctoken.Token
}

type disk struct {
	dir *recfile.Dir[diskEntry]
}

// scannedEntry is what openDisk reports per surviving file: the index
// material, without retaining the (potentially large) token stream.
type scannedEntry struct {
	key    string
	depKey string
	deps   []dep
}

// openDisk prepares dir as a persistent tier: creates it if needed,
// removes temp files abandoned by crashed writers, verifies every
// entry's checksum and name, and deletes the ones that fail (returned
// as the corrupt count).
func openDisk(dir string) (*disk, []scannedEntry, int64, error) {
	var scanned []scannedEntry
	d, corrupt, err := recfile.Open(dir, diskMagic, entrySuffix,
		func(e *diskEntry) string { return e.Key },
		func(e *diskEntry) {
			deps := make([]dep, len(e.Deps))
			for i, dd := range e.Deps {
				deps[i] = dep{path: dd.Path, present: dd.Present}
			}
			scanned = append(scanned, scannedEntry{
				key:    e.Key,
				depKey: depKeyOf(e.Fingerprint, e.Unit, e.UnitDigest),
				deps:   deps,
			})
		})
	if err != nil {
		return nil, nil, 0, err
	}
	return &disk{dir: d}, scanned, corrupt, nil
}

// load rehydrates one entry: the persisted token stream reparses into a
// fresh tree (CFGs rebuild lazily as checkers request them), and parse
// diagnostics are restored from their persisted rendering — exactly
// what the original run reported, so warm output stays byte-identical.
// keepTokens additionally leaves the token stream on the artifact, for
// stores that retain tokens (fleet workers shipping shard payloads).
func (d *disk) load(key string, keepTokens bool) (*Artifact, bool) {
	e, ok := d.dir.Read(key)
	if !ok {
		return nil, false
	}
	f, _ := cparse.ParseFile(e.Unit, e.Tokens)
	if f == nil {
		return nil, false
	}
	var errs []error
	for _, s := range e.ParseErrors {
		errs = append(errs, errors.New(s))
	}
	art := &Artifact{File: f, ParseErrors: errs, Lines: e.Lines}
	if keepTokens {
		art.Tokens = e.Tokens
	}
	return art, true
}

// write persists one entry atomically under its key.
func (d *disk) write(key, fingerprint, unit, unitDigest string, deps []dep, art *Artifact) error {
	e := diskEntry{
		Fingerprint: fingerprint,
		Unit:        unit,
		UnitDigest:  unitDigest,
		Key:         key,
		Lines:       art.Lines,
		Tokens:      art.Tokens,
	}
	for _, dp := range deps {
		e.Deps = append(e.Deps, diskDep{Path: dp.path, Present: dp.present})
	}
	for _, err := range art.ParseErrors {
		e.ParseErrors = append(e.ParseErrors, err.Error())
	}
	return d.dir.Write(key, &e)
}

func (d *disk) remove(key string) { d.dir.Remove(key) }
