package snapshot

import (
	"fmt"
	"sync"
	"testing"

	"deviant/internal/cast"
	"deviant/internal/cfg"
	"deviant/internal/cpp"
)

const fp = "test-fingerprint"

// addUnit runs the real preprocessor over unit so the recorded dep list
// matches what core records, then stores a marker artifact.
func addUnit(t *testing.T, s *Store, fs cpp.MapFS, unit string) *Artifact {
	t.Helper()
	pp := cpp.New(fs, "include")
	if _, err := pp.Process(unit); err != nil {
		t.Fatalf("%s: %v", unit, err)
	}
	art := &Artifact{File: &cast.File{Name: unit}, Lines: 1}
	s.Add(fs, fp, unit, pp.IncludeDeps(), pp.MissedProbes(), art)
	return art
}

func sources() cpp.MapFS {
	return cpp.MapFS{
		"include/defs.h": "#define N 3\n",
		"a.c":            "#include <defs.h>\nint a(void) { return N; }\n",
		"b.c":            "#include <defs.h>\nint b(void) { return N + 1; }\n",
	}
}

func TestStoreHitOnIdenticalClosure(t *testing.T) {
	s := NewStore(0)
	fs := sources()
	want := addUnit(t, s, fs, "a.c")
	got, ok := s.Lookup(fs, fp, "a.c")
	if !ok || got != want {
		t.Fatalf("lookup after add: ok=%v art=%p want %p", ok, got, want)
	}
	// A second provider with byte-identical contents hits too: the store
	// is content-addressed, not provider-addressed.
	fs2 := sources()
	if _, ok := s.Lookup(fs2, fp, "a.c"); !ok {
		t.Error("identical content through a fresh provider missed")
	}
}

func TestStoreMissOnUnitEdit(t *testing.T) {
	s := NewStore(0)
	fs := sources()
	addUnit(t, s, fs, "a.c")
	fs["a.c"] = "#include <defs.h>\nint a(void) { return N + 9; }\n"
	if _, ok := s.Lookup(fs, fp, "a.c"); ok {
		t.Error("edited unit content still hit")
	}
}

func TestStoreMissOnHeaderEdit(t *testing.T) {
	s := NewStore(0)
	fs := sources()
	addUnit(t, s, fs, "a.c")
	fs["include/defs.h"] = "#define N 4\n"
	if _, ok := s.Lookup(fs, fp, "a.c"); ok {
		t.Error("edited transitive include still hit")
	}
}

func TestStoreMissOnIncludeShadowing(t *testing.T) {
	s := NewStore(0)
	fs := sources()
	addUnit(t, s, fs, "a.c")
	// <defs.h> was probed at the bare path "defs.h" first and missed;
	// creating that file would shadow include/defs.h.
	fs["defs.h"] = "#define N 99\n"
	if _, ok := s.Lookup(fs, fp, "a.c"); ok {
		t.Error("shadowing include appeared but lookup still hit")
	}
}

func TestStoreMissOnFingerprintChange(t *testing.T) {
	s := NewStore(0)
	fs := sources()
	addUnit(t, s, fs, "a.c")
	if _, ok := s.Lookup(fs, Fingerprint("other", "config"), "a.c"); ok {
		t.Error("different configuration fingerprint still hit")
	}
}

func TestStoreHitAfterEditRevert(t *testing.T) {
	s := NewStore(0)
	fs := sources()
	addUnit(t, s, fs, "a.c")
	orig := fs["a.c"]
	fs["a.c"] = "int a(void) { return 0; }\n"
	addUnit(t, s, fs, "a.c")
	fs["a.c"] = orig
	if _, ok := s.Lookup(fs, fp, "a.c"); !ok {
		t.Error("reverting an edit should hit the original artifact again")
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(2)
	fs := cpp.MapFS{}
	for i := 0; i < 3; i++ {
		unit := fmt.Sprintf("u%d.c", i)
		fs[unit] = fmt.Sprintf("int f%d(void) { return %d; }\n", i, i)
		addUnit(t, s, fs, unit)
	}
	if _, ok := s.Lookup(fs, fp, "u0.c"); ok {
		t.Error("oldest unit survived eviction with capacity 2")
	}
	for _, unit := range []string{"u1.c", "u2.c"} {
		if _, ok := s.Lookup(fs, fp, unit); !ok {
			t.Errorf("%s evicted, want resident", unit)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Units != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 2 units", st)
	}
}

func TestStoreGraphCache(t *testing.T) {
	s := NewStore(0)
	fs := sources()
	art := addUnit(t, s, fs, "a.c")
	if _, ok := art.Graph("a"); ok {
		t.Fatal("graph present before SetGraph")
	}
	g := &cfg.Graph{}
	art.SetGraph("a", g)
	if got, ok := art.Graph("a"); !ok || got != g {
		t.Fatalf("Graph(a) = %p/%v, want %p", got, ok, g)
	}
	if st := s.Stats(); st.Graphs != 1 {
		t.Errorf("Stats.Graphs = %d, want 1", st.Graphs)
	}
}

// TestStorePartialCells pins the partial cells: a stored nil partial is
// a hit, a different key misses, and storing a slot under a new key
// drops every partial of that slot and no other.
func TestStorePartialCells(t *testing.T) {
	s := NewStore(0)
	art := addUnit(t, s, sources(), "a.c")
	if _, _, ok := art.Partial(0, "k", 0); ok {
		t.Fatal("partial present before SetPartial")
	}
	art.SetPartial(0, "k", 0, 2, nil, 7)
	art.SetPartial(0, "k", 1, 2, "p1", 0)
	art.SetPartial(1, "k", 0, 2, "q0", 0)
	if p, w, ok := art.Partial(0, "k", 0); !ok || p != nil || w != 7 {
		t.Errorf("nil partial: %v/%d/%v, want a nil hit with word 7", p, w, ok)
	}
	if _, _, ok := art.Partial(0, "other", 1); ok {
		t.Error("a different key hit")
	}
	art.SetPartial(0, "k2", 0, 2, "p0", 0)
	if _, _, ok := art.Partial(0, "k", 1); ok {
		t.Error("a slot's old-key partial survived a new key")
	}
	if p, _, ok := art.Partial(1, "k", 0); !ok || p != "q0" {
		t.Errorf("another slot's partial: %v/%v, want q0", p, ok)
	}
	if st := s.Stats(); st.Partials != 2 {
		t.Errorf("Stats.Partials = %d, want 2", st.Partials)
	}
}

// TestStoreOnePartialHolderPerUnit pins rule 3 of the package doc: adding
// or looking up a version of a unit drops every other version's
// partials, and a superseded version accepts no new ones.
func TestStoreOnePartialHolderPerUnit(t *testing.T) {
	s := NewStore(0)
	fs := sources()
	v1 := addUnit(t, s, fs, "a.c")
	b := addUnit(t, s, fs, "b.c")
	v1.SetPartial(0, "k", 0, 1, "v1", 0)
	b.SetPartial(0, "k", 0, 1, "b", 0)

	edited := sources()
	edited["a.c"] = "#include <defs.h>\nint a(void) { return N + 9; }\n"
	v2 := addUnit(t, s, edited, "a.c")
	if v1.PartialCount() != 0 {
		t.Error("superseded version kept its partials")
	}
	v1.SetPartial(0, "k", 0, 1, "late", 0)
	if v1.PartialCount() != 0 {
		t.Error("superseded version accepted a partial")
	}
	v2.SetPartial(0, "k", 0, 1, "v2", 0)
	if b.PartialCount() != 1 {
		t.Error("another unit's partials were dropped")
	}

	// Looking the first version up again makes it the holder.
	if got, ok := s.Lookup(fs, fp, "a.c"); !ok || got != v1 {
		t.Fatal("first version no longer resident")
	}
	if v2.PartialCount() != 0 {
		t.Error("looking up v1 left v2's partials resident")
	}
	v1.SetPartial(0, "k", 0, 1, "v1 again", 0)
	if p, _, ok := v1.Partial(0, "k", 0); !ok || p != "v1 again" {
		t.Errorf("holder refused a partial: %v/%v", p, ok)
	}
	if st := s.Stats(); st.Partials != 2 {
		t.Errorf("Stats.Partials = %d, want 2 (one holder per unit)", st.Partials)
	}
}

func TestStoreCountersAndConcurrency(t *testing.T) {
	s := NewStore(0)
	fs := sources()
	addUnit(t, s, fs, "a.c")
	addUnit(t, s, fs, "b.c")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.Lookup(fs, fp, "a.c")
				s.Lookup(fs, fp, "b.c")
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.UnitHits != 800 {
		t.Errorf("UnitHits = %d, want 800", st.UnitHits)
	}
}
