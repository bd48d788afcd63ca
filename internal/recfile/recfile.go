// Package recfile is the crash-safe record format shared by the
// snapshot store's disk tier and deviantd's job log: one directory, one
// gob-encoded record per file named <key><suffix>, each file framed as
// magic + SHA-256(payload) + payload.
//
// Writes are atomic: a temp file in the same directory, fsync, close,
// rename. A crash at any point leaves the previous record, the new one,
// or an orphaned temp file that Open sweeps — never a torn file under a
// record's real name. Reads verify the magic and the checksum, so a
// flipped bit or a truncated file reads as absent, never as wrong data.
package recfile

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
)

// TmpPrefix marks in-progress writes; Open removes leftovers.
const TmpPrefix = ".tmp-"

// Dir is one directory of records of type T.
type Dir[T any] struct {
	dir    string
	magic  []byte
	suffix string
}

// Open prepares dir as a record directory: it creates dir if needed,
// removes temp files abandoned by crashed writers, and calls each for
// every record whose magic, checksum and decode hold and whose file name
// is key(record)+suffix. Records that fail any check are deleted and
// counted in the returned corrupt total.
func Open[T any](dir string, magic []byte, suffix string, key func(*T) string, each func(*T)) (*Dir[T], int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	d := &Dir[T]{dir: dir, magic: magic, suffix: suffix}
	var corrupt int64
	for _, de := range names {
		name := de.Name()
		if strings.HasPrefix(name, TmpPrefix) {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, suffix) {
			continue
		}
		v, ok := d.Read(strings.TrimSuffix(name, suffix))
		if !ok || name != key(v)+suffix {
			os.Remove(filepath.Join(dir, name))
			corrupt++
			continue
		}
		each(v)
	}
	return d, corrupt, nil
}

func (d *Dir[T]) path(key string) string { return filepath.Join(d.dir, key+d.suffix) }

// Read returns the record stored under key only if the magic, checksum
// and gob decode all hold.
func (d *Dir[T]) Read(key string) (*T, bool) {
	raw, err := os.ReadFile(d.path(key))
	if err != nil || len(raw) < len(d.magic)+sha256.Size {
		return nil, false
	}
	if !bytes.Equal(raw[:len(d.magic)], d.magic) {
		return nil, false
	}
	sum := raw[len(d.magic) : len(d.magic)+sha256.Size]
	payload := raw[len(d.magic)+sha256.Size:]
	if got := sha256.Sum256(payload); !bytes.Equal(sum, got[:]) {
		return nil, false
	}
	var v T
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&v); err != nil {
		return nil, false
	}
	return &v, true
}

// Write persists v under key atomically, replacing any previous record:
// temp file in the same directory, magic + checksum + payload, fsync,
// close, rename.
func (d *Dir[T]) Write(key string, v *T) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return err
	}
	sum := sha256.Sum256(payload.Bytes())
	f, err := os.CreateTemp(d.dir, TmpPrefix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(d.magic)
	if werr == nil {
		_, werr = f.Write(sum[:])
	}
	if werr == nil {
		_, werr = f.Write(payload.Bytes())
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, d.path(key)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Remove deletes key's record.
func (d *Dir[T]) Remove(key string) {
	os.Remove(d.path(key))
}
