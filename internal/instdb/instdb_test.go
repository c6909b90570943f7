package instdb

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"gridsched/internal/etc"
)

var suiteNames = []string{
	"u_c_hihi.0", "u_c_lolo.0@64x8", "u_i_hilo.0@64x8", "u_s_lohi.0@128x8",
}

func buildStore(t testing.TB, names []string) (*Store, []byte) {
	t.Helper()
	var buf bytes.Buffer
	st, err := Build(&buf, names)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if st.Instances != len(names) {
		t.Fatalf("Build reported %d instances, want %d", st.Instances, len(names))
	}
	store, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return store, buf.Bytes()
}

// TestRoundTripBitExact pins the acceptance criterion: build → decode →
// get yields instances bit-identical to on-demand generation, in every
// field solvers read.
func TestRoundTripBitExact(t *testing.T) {
	store, _ := buildStore(t, suiteNames)
	if got := store.Len(); got != len(suiteNames) {
		t.Fatalf("Len = %d, want %d", got, len(suiteNames))
	}
	for _, name := range suiteNames {
		in, ok := store.Get(name)
		if !ok {
			t.Fatalf("Get(%q) missing", name)
		}
		want, err := etc.GenerateByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if in.Name != want.Name || in.T != want.T || in.M != want.M || in.ClassTag != want.ClassTag {
			t.Fatalf("%q: identity fields drifted: got %q %dx%d %+v", name, in.Name, in.T, in.M, in.ClassTag)
		}
		if !floatsEqual(in.Row, want.Row) {
			t.Fatalf("%q: Row plane not bit-identical", name)
		}
		if !floatsEqual(in.Ready, want.Ready) {
			t.Fatalf("%q: Ready not bit-identical", name)
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("%q: Validate: %v", name, err)
		}
	}
	if _, ok := store.Get("u_c_hihi.7"); ok {
		t.Fatal("Get of an unstored name reported ok")
	}
	if err := store.Verify(true); err != nil {
		t.Fatalf("Verify(regen): %v", err)
	}
}

// TestDedup stores the same matrix under two names (the plain benchmark
// name and its explicit @512x16 spelling generate identical planes) and
// checks the data block holds it once.
func TestDedup(t *testing.T) {
	var buf bytes.Buffer
	st, err := Build(&buf, []string{"u_c_hihi.0", "u_c_hihi.0@512x16", "u_i_lolo.0@64x8"})
	if err != nil {
		t.Fatal(err)
	}
	if st.UniqueMatrices != 2 {
		t.Fatalf("UniqueMatrices = %d, want 2 (dedup failed)", st.UniqueMatrices)
	}
	wantData := int64((512*16 + 64*8) * 8)
	if st.DataBytes != wantData {
		t.Fatalf("DataBytes = %d, want %d", st.DataBytes, wantData)
	}
	store, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := store.Get("u_c_hihi.0")
	b, _ := store.Get("u_c_hihi.0@512x16")
	if a == nil || b == nil {
		t.Fatal("deduped instances missing")
	}
	// The two views must share backing storage, not merely agree.
	if &a.Row[0] != &b.Row[0] {
		t.Fatal("deduped instances do not share their matrix")
	}
}

// TestGetAllocationFree pins the zero-copy contract: after Decode, Get
// allocates nothing.
func TestGetAllocationFree(t *testing.T) {
	store, _ := buildStore(t, suiteNames)
	allocs := testing.AllocsPerRun(1000, func() {
		for _, name := range suiteNames {
			if _, ok := store.Get(name); !ok {
				t.Fatal("missing instance")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Get allocated %.1f times per run, want 0", allocs)
	}
}

// TestDecodeAllocatesOnlyTheArena pins the memory contract of Decode:
// every instance is a view into the one decoded arena, so decoding a
// corpus allocates little beyond DataBytes. A derived per-instance
// matrix plane would double it.
func TestDecodeAllocatesOnlyTheArena(t *testing.T) {
	var names []string
	for _, cl := range etc.AllClasses() {
		names = append(names, cl.Name())
	}
	var buf bytes.Buffer
	st, err := Build(&buf, names)
	if err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	store, err := Decode(img)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != len(names) {
		t.Fatalf("decoded %d instances, want %d", store.Len(), len(names))
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Decode allocated %d bytes for %d data bytes", alloc, st.DataBytes)
	if limit := uint64(st.DataBytes) * 3 / 2; alloc >= limit {
		t.Fatalf("Decode allocated %d bytes for %d data bytes, want < %d (1.5×)", alloc, st.DataBytes, limit)
	}
}

// TestBuildErrors covers the build-side input validation.
func TestBuildErrors(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Build(&buf, nil); err == nil {
		t.Fatal("Build with no names succeeded")
	}
	if _, err := Build(&buf, []string{"u_c_hihi.0", "u_c_hihi.0"}); err == nil {
		t.Fatal("Build with duplicate names succeeded")
	}
	if _, err := Build(&buf, []string{"not-an-instance"}); err == nil {
		t.Fatal("Build with an unparsable name succeeded")
	}
}

// TestDecodeRejectsCorruption flips bytes across every block and checks
// Decode answers with an error — never a panic, never a bogus store.
func TestDecodeRejectsCorruption(t *testing.T) {
	_, img := buildStore(t, suiteNames)
	if _, err := Decode(nil); err == nil {
		t.Fatal("Decode(nil) succeeded")
	}
	if _, err := Decode(img[:HeaderSize-1]); err == nil {
		t.Fatal("Decode of a truncated header succeeded")
	}
	if _, err := Decode(img[:len(img)-9]); err == nil {
		t.Fatal("Decode of a truncated data block succeeded")
	}
	for _, off := range []int{0, 8, 20, 30, 40, 56, HeaderSize + 4, len(img) - 4} {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0xFF
		if st, err := Decode(bad); err == nil {
			// A flipped data byte that survives all structural checks must
			// at least fail the checksum; reaching here means nothing
			// caught it.
			t.Fatalf("Decode with byte %d corrupted returned a store of %d instances", off, st.Len())
		}
	}
	// A forged blob count pointing past the data block must be caught.
	bad := append([]byte(nil), img...)
	indexOff := binary.LittleEndian.Uint64(bad[32:])
	binary.LittleEndian.PutUint64(bad[indexOff+8:], math.MaxUint64/16)
	if _, err := Decode(bad); err == nil {
		t.Fatal("Decode with a forged blob count succeeded")
	}
}

// TestFileRoundTripAndReload exercises BuildFile/Open/Reload: an atomic
// rebuild with more instances becomes visible after Reload, a corrupt
// rewrite leaves the serving snapshot untouched, and snapshots taken
// before a reload stay valid.
func TestFileRoundTripAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.instdb")
	if _, err := BuildFile(path, suiteNames[:2]); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2 || db.Path() != path {
		t.Fatalf("opened %d instances at %q", db.Len(), db.Path())
	}
	old := db.Snapshot()

	if _, err := BuildFile(path, suiteNames); err != nil {
		t.Fatal(err)
	}
	if err := db.Reload(); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if db.Len() != len(suiteNames) || db.Reloads() != 1 {
		t.Fatalf("after reload: %d instances, %d reloads", db.Len(), db.Reloads())
	}
	if _, ok := db.Get(suiteNames[3]); !ok {
		t.Fatal("reloaded corpus missing new instance")
	}
	// The pre-reload snapshot is still fully usable (RCU property).
	if in, ok := old.Get(suiteNames[0]); !ok || in.Validate() != nil {
		t.Fatal("old snapshot unusable after reload")
	}

	// A corrupt rewrite must not dethrone the serving snapshot.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := db.Reload(); err == nil {
		t.Fatal("Reload of a corrupt file succeeded")
	}
	if db.Len() != len(suiteNames) {
		t.Fatalf("corrupt reload replaced the snapshot: %d instances", db.Len())
	}
}
