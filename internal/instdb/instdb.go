// Package instdb implements a compact single-file binary repository of
// pre-generated ETC instances — the service-side replacement for
// regenerating benchmark matrices behind one LRU cache. A store file
// holds thousands of matrices behind three blocks:
//
//	+----------------------------------------------------------------+
//	| fixed 64-byte header (magic, version, block offsets)           |
//	+----------------------------------------------------------------+
//	| length-prefixed JSON metadata (build time, per-instance         |
//	| name/class/dims/seed, data checksum)                            |
//	+----------------------------------------------------------------+
//	| offset index: one (offset, count) pair per unique matrix        |
//	+----------------------------------------------------------------+
//	| data block: raw little-endian float64 planes, deduplicated      |
//	+----------------------------------------------------------------+
//
// Identical matrices are stored once (dedup): every instance's
// metadata names a blob in the offset index, and any number of
// instances may share one blob. At open time the data block is decoded
// into a single contiguous arena and every instance becomes a
// zero-copy etc.Instance view into it: an instance's matrix is its
// blob's task-major slice of the arena, so Decode allocates no matrix
// plane beyond the arena. Get is a map lookup returning a shared
// pointer, allocation-free and safe for concurrent use.
//
// DB wraps a Store with atomic hot-reload (open-new / swap-pointer /
// let-the-GC-collect-old under an RCU-style atomic.Pointer guard), so
// a long-running service replica picks up a regenerated corpus without
// restart: readers that loaded the old snapshot keep using it safely
// while new lookups see the new one.
package instdb

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"gridsched/internal/etc"
)

// Format constants. The magic is 8 bytes so the header reads as eight
// aligned 64-bit words.
const (
	// Magic opens every store file.
	Magic = "GSINSTDB"
	// Version is the current format version.
	Version = 1
	// HeaderSize is the fixed header length in bytes.
	HeaderSize = 64

	// maxInstances bounds the instance count a hostile metadata block
	// can claim; far above any real corpus, low enough that decode work
	// stays proportional to the file.
	maxInstances = 1 << 20
	// maxMatrixEntries mirrors the etc package's external-input ceiling
	// on tasks×machines.
	maxMatrixEntries = 1 << 24
)

// header is the decoded fixed header.
type header struct {
	version    uint32
	metaOff    uint64 // offset of the uint64 length prefix
	metaLen    uint64 // JSON byte length (excludes the prefix)
	indexOff   uint64
	indexCount uint64 // unique blobs
	dataOff    uint64 // 8-aligned
	dataLen    uint64 // bytes
}

// fileMeta is the JSON metadata block.
type fileMeta struct {
	Format    string     `json:"format"`
	Version   int        `json:"version"`
	BuildUnix int64      `json:"build_unix"`
	DataFNV   uint64     `json:"data_fnv64"`
	Instances []instMeta `json:"instances"`
}

// instMeta describes one stored instance; Blob indexes the offset
// table.
type instMeta struct {
	Name     string `json:"name"`
	Class    string `json:"class,omitempty"`
	Tasks    int    `json:"tasks"`
	Machines int    `json:"machines"`
	Seed     uint64 `json:"seed,omitempty"`
	Blob     int    `json:"blob"`
}

// blobRef is one offset-index entry: a unique matrix inside the data
// block. Off is a byte offset relative to the data block start (always
// a multiple of 8); Count is the plane length in float64 values.
type blobRef struct {
	Off   uint64
	Count uint64
}

// BuildStats summarizes what Build wrote.
type BuildStats struct {
	// Instances is the number of stored instance records.
	Instances int
	// UniqueMatrices is the number of deduplicated data blobs.
	UniqueMatrices int
	// DataBytes is the data block size; Dedup saved
	// (Instances' total plane bytes − DataBytes).
	DataBytes int64
	// FileBytes is the total file size.
	FileBytes int64
}

// Build generates every named instance through etc.GenerateByName and
// writes a store file to w. Names must be benchmark instance names
// ("u_c_hihi.0", optionally sized "u_c_hihi.0@128x8"); duplicates are
// rejected. Identical matrices (two names generating the same plane)
// share one data blob.
func Build(w io.Writer, names []string) (BuildStats, error) {
	if len(names) == 0 {
		return BuildStats{}, fmt.Errorf("instdb: no instance names to build")
	}
	if len(names) > maxInstances {
		return BuildStats{}, fmt.Errorf("instdb: %d instances exceed the %d limit", len(names), maxInstances)
	}
	meta := fileMeta{
		Format:    "gridsched-instdb",
		Version:   Version,
		BuildUnix: time.Now().Unix(),
	}
	var (
		blobs    []blobRef
		data     []byte
		seen     = make(map[string]bool, len(names))
		byDigest = make(map[uint64][]int) // row digest -> candidate blob ids
		rows     [][]float64              // per-blob row plane, for collision checks
	)
	for _, name := range names {
		if seen[name] {
			return BuildStats{}, fmt.Errorf("instdb: duplicate instance name %q", name)
		}
		seen[name] = true
		in, err := etc.GenerateByName(name)
		if err != nil {
			return BuildStats{}, fmt.Errorf("instdb: generating %q: %w", name, err)
		}
		cl, _, _, _ := etc.ParseSizedName(name)
		digest := rowDigest(in.T, in.M, in.Row)
		blob := -1
		for _, cand := range byDigest[digest] {
			if floatsEqual(rows[cand], in.Row) {
				blob = cand
				break
			}
		}
		if blob < 0 {
			blob = len(blobs)
			off := uint64(len(data))
			data = appendFloats(data, in.Row)
			blobs = append(blobs, blobRef{Off: off, Count: uint64(len(in.Row))})
			rows = append(rows, in.Row)
			byDigest[digest] = append(byDigest[digest], blob)
		}
		meta.Instances = append(meta.Instances, instMeta{
			Name:     in.Name,
			Class:    cl.Name(),
			Tasks:    in.T,
			Machines: in.M,
			Seed:     etc.ClassSeed(cl),
			Blob:     blob,
		})
	}
	meta.DataFNV = fnv64a(data)

	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return BuildStats{}, fmt.Errorf("instdb: encoding metadata: %w", err)
	}
	var (
		metaOff  = uint64(HeaderSize)
		indexOff = align8(metaOff + 8 + uint64(len(metaJSON)))
		dataOff  = align8(indexOff + uint64(len(blobs))*16)
	)
	h := header{
		version:    Version,
		metaOff:    metaOff,
		metaLen:    uint64(len(metaJSON)),
		indexOff:   indexOff,
		indexCount: uint64(len(blobs)),
		dataOff:    dataOff,
		dataLen:    uint64(len(data)),
	}
	buf := make([]byte, dataOff+uint64(len(data)))
	copy(buf, Magic)
	binary.LittleEndian.PutUint32(buf[8:], h.version)
	binary.LittleEndian.PutUint64(buf[16:], h.metaOff)
	binary.LittleEndian.PutUint64(buf[24:], h.metaLen)
	binary.LittleEndian.PutUint64(buf[32:], h.indexOff)
	binary.LittleEndian.PutUint64(buf[40:], h.indexCount)
	binary.LittleEndian.PutUint64(buf[48:], h.dataOff)
	binary.LittleEndian.PutUint64(buf[56:], h.dataLen)
	binary.LittleEndian.PutUint64(buf[metaOff:], h.metaLen)
	copy(buf[metaOff+8:], metaJSON)
	for i, b := range blobs {
		binary.LittleEndian.PutUint64(buf[indexOff+uint64(i)*16:], b.Off)
		binary.LittleEndian.PutUint64(buf[indexOff+uint64(i)*16+8:], b.Count)
	}
	copy(buf[dataOff:], data)
	if _, err := w.Write(buf); err != nil {
		return BuildStats{}, err
	}
	return BuildStats{
		Instances:      len(meta.Instances),
		UniqueMatrices: len(blobs),
		DataBytes:      int64(len(data)),
		FileBytes:      int64(len(buf)),
	}, nil
}

// BuildFile builds to path atomically: the file is written to a
// temporary sibling and renamed into place, so a reader (or a reloading
// service replica) never observes a torn store.
func BuildFile(path string, names []string) (BuildStats, error) {
	tmp, err := os.CreateTemp(dirOf(path), ".instdb-*")
	if err != nil {
		return BuildStats{}, err
	}
	defer os.Remove(tmp.Name())
	st, err := Build(tmp, names)
	if err != nil {
		tmp.Close()
		return BuildStats{}, err
	}
	if err := tmp.Close(); err != nil {
		return BuildStats{}, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return BuildStats{}, err
	}
	return st, nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

// Store is one decoded, immutable store snapshot. All lookups are
// zero-copy views into a single float64 arena decoded at open time;
// Get performs no allocation and is safe for unbounded concurrency.
type Store struct {
	meta    fileMeta
	names   []string // sorted
	byName  map[string]*etc.Instance
	unique  int
	dataLen int64
}

// Decode parses a complete store image. It is hardened against hostile
// input: every offset, length, count and dimension is bounds-checked
// before use, and the worst a corrupt file yields is an error — never
// a panic or an allocation proportional to a forged header field.
func Decode(buf []byte) (*Store, error) {
	h, err := decodeHeader(buf)
	if err != nil {
		return nil, err
	}
	metaJSON := buf[h.metaOff+8 : h.metaOff+8+h.metaLen]
	var meta fileMeta
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return nil, fmt.Errorf("instdb: decoding metadata: %w", err)
	}
	if meta.Version != Version {
		return nil, fmt.Errorf("instdb: metadata version %d, want %d", meta.Version, Version)
	}
	if len(meta.Instances) == 0 {
		return nil, fmt.Errorf("instdb: store holds no instances")
	}
	if len(meta.Instances) > maxInstances {
		return nil, fmt.Errorf("instdb: %d instances exceed the %d limit", len(meta.Instances), maxInstances)
	}
	data := buf[h.dataOff : h.dataOff+h.dataLen]
	if got := fnv64a(data); got != meta.DataFNV {
		return nil, fmt.Errorf("instdb: data checksum %#x, metadata records %#x", got, meta.DataFNV)
	}

	// Offset index: strictly in-bounds, 8-aligned blob extents.
	blobs := make([]blobRef, h.indexCount)
	for i := range blobs {
		off := binary.LittleEndian.Uint64(buf[h.indexOff+uint64(i)*16:])
		count := binary.LittleEndian.Uint64(buf[h.indexOff+uint64(i)*16+8:])
		if off%8 != 0 || off > h.dataLen || count > (h.dataLen-off)/8 {
			return nil, fmt.Errorf("instdb: blob %d extent (%d,+%d×8) outside the %d-byte data block", i, off, count, h.dataLen)
		}
		blobs[i] = blobRef{Off: off, Count: count}
	}

	// Decode the whole data block into one contiguous arena; every
	// instance view aliases it.
	arena := make([]float64, h.dataLen/8)
	for i := range arena {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("instdb: data value %d = %v is not a positive finite ETC entry", i, v)
		}
		arena[i] = v
	}

	st := &Store{
		meta:    meta,
		byName:  make(map[string]*etc.Instance, len(meta.Instances)),
		unique:  len(blobs),
		dataLen: int64(h.dataLen),
	}
	zeros := make(map[int][]float64)
	for _, im := range meta.Instances {
		if im.Name == "" {
			return nil, fmt.Errorf("instdb: instance with empty name")
		}
		if _, dup := st.byName[im.Name]; dup {
			return nil, fmt.Errorf("instdb: duplicate instance name %q", im.Name)
		}
		if im.Tasks <= 0 || im.Machines <= 0 || im.Tasks > maxMatrixEntries/im.Machines {
			return nil, fmt.Errorf("instdb: instance %q has hostile dimensions %dx%d", im.Name, im.Tasks, im.Machines)
		}
		if im.Blob < 0 || im.Blob >= len(blobs) {
			return nil, fmt.Errorf("instdb: instance %q names blob %d of %d", im.Name, im.Blob, len(blobs))
		}
		b := blobs[im.Blob]
		if uint64(im.Tasks)*uint64(im.Machines) != b.Count {
			return nil, fmt.Errorf("instdb: instance %q is %dx%d but blob %d holds %d values",
				im.Name, im.Tasks, im.Machines, im.Blob, b.Count)
		}
		ready, ok := zeros[im.Machines]
		if !ok {
			ready = make([]float64, im.Machines)
			zeros[im.Machines] = ready
		}
		inst := &etc.Instance{
			Name:  im.Name,
			T:     im.Tasks,
			M:     im.Machines,
			Row:   arena[b.Off/8 : b.Off/8+b.Count],
			Ready: ready,
		}
		if cl, _, _, perr := etc.ParseSizedName(im.Name); perr == nil {
			inst.ClassTag = cl
		}
		st.byName[im.Name] = inst
		st.names = append(st.names, im.Name)
	}
	sort.Strings(st.names)
	return st, nil
}

// decodeHeader validates the fixed header against the buffer bounds.
func decodeHeader(buf []byte) (header, error) {
	var h header
	if len(buf) < HeaderSize {
		return h, fmt.Errorf("instdb: %d bytes is shorter than the %d-byte header", len(buf), HeaderSize)
	}
	if string(buf[:8]) != Magic {
		return h, fmt.Errorf("instdb: bad magic %q", buf[:8])
	}
	h.version = binary.LittleEndian.Uint32(buf[8:])
	if h.version != Version {
		return h, fmt.Errorf("instdb: format version %d, want %d", h.version, Version)
	}
	h.metaOff = binary.LittleEndian.Uint64(buf[16:])
	h.metaLen = binary.LittleEndian.Uint64(buf[24:])
	h.indexOff = binary.LittleEndian.Uint64(buf[32:])
	h.indexCount = binary.LittleEndian.Uint64(buf[40:])
	h.dataOff = binary.LittleEndian.Uint64(buf[48:])
	h.dataLen = binary.LittleEndian.Uint64(buf[56:])

	n := uint64(len(buf))
	// Each block must lie inside the buffer; the arithmetic is ordered
	// so no sum can overflow before its bound is checked.
	if h.metaOff < HeaderSize || h.metaOff > n || n-h.metaOff < 8 || h.metaLen > n-h.metaOff-8 {
		return h, fmt.Errorf("instdb: metadata block (%d,+%d) outside the %d-byte file", h.metaOff, h.metaLen, n)
	}
	if prefix := binary.LittleEndian.Uint64(buf[h.metaOff:]); prefix != h.metaLen {
		return h, fmt.Errorf("instdb: metadata length prefix %d disagrees with header %d", prefix, h.metaLen)
	}
	if h.indexOff > n || h.indexCount > (n-h.indexOff)/16 {
		return h, fmt.Errorf("instdb: offset index (%d,×%d) outside the %d-byte file", h.indexOff, h.indexCount, n)
	}
	if h.indexCount > maxInstances {
		return h, fmt.Errorf("instdb: %d blobs exceed the %d limit", h.indexCount, maxInstances)
	}
	if h.dataOff%8 != 0 || h.dataOff > n || h.dataLen > n-h.dataOff || h.dataLen%8 != 0 {
		return h, fmt.Errorf("instdb: data block (%d,+%d) malformed for a %d-byte file", h.dataOff, h.dataLen, n)
	}
	return h, nil
}

// Get returns the named instance view, or false when the store does not
// hold it. The returned instance aliases the store's arena and must be
// treated as immutable (as all instances are). Get allocates nothing.
func (s *Store) Get(name string) (*etc.Instance, bool) {
	in, ok := s.byName[name]
	return in, ok
}

// Names lists the stored instance names, sorted.
func (s *Store) Names() []string { return s.names }

// Len is the number of stored instances.
func (s *Store) Len() int { return len(s.byName) }

// BuildTime is when the store was built.
func (s *Store) BuildTime() time.Time { return time.Unix(s.meta.BuildUnix, 0) }

// Stats summarizes a decoded store.
type StoreStats struct {
	Instances      int
	UniqueMatrices int
	DataBytes      int64
	BuildTime      time.Time
}

// Stats reports the store's shape.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Instances:      len(s.byName),
		UniqueMatrices: s.unique,
		DataBytes:      s.dataLen,
		BuildTime:      s.BuildTime(),
	}
}

// Verify revalidates every instance of a decoded store structurally
// (etc.Instance.Validate: matrix size, positive finite entries). When
// regen is true it additionally regenerates each instance through
// etc.GenerateByName and requires bit-exact equality — the strongest
// possible check that a corpus file still matches what on-demand
// generation would produce.
func (s *Store) Verify(regen bool) error {
	for _, name := range s.names {
		in := s.byName[name]
		if err := in.Validate(); err != nil {
			return fmt.Errorf("instdb: instance %q: %w", name, err)
		}
		if !regen {
			continue
		}
		want, err := etc.GenerateByName(name)
		if err != nil {
			return fmt.Errorf("instdb: instance %q is not regenerable: %w", name, err)
		}
		if in.T != want.T || in.M != want.M || in.ClassTag != want.ClassTag {
			return fmt.Errorf("instdb: instance %q shape/class drifted from regeneration", name)
		}
		if !floatsEqual(in.Row, want.Row) {
			return fmt.Errorf("instdb: instance %q is not bit-identical to regeneration", name)
		}
	}
	return nil
}

// DB is a reloadable handle on a store file. Readers call Get on the
// current snapshot through an atomic pointer (the RCU guard): Reload
// opens and fully validates the new file, swaps the pointer, and the
// old snapshot stays valid for any reader that already holds it until
// the GC collects it — no locks anywhere on the read path.
type DB struct {
	path    string
	cur     atomic.Pointer[Store]
	reloads atomic.Int64
}

// Open reads, decodes and validates the store file at path.
func Open(path string) (*DB, error) {
	st, err := decodeFile(path)
	if err != nil {
		return nil, err
	}
	db := &DB{path: path}
	db.cur.Store(st)
	return db, nil
}

func decodeFile(path string) (*Store, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(buf)
}

// Get looks the name up in the current snapshot.
func (db *DB) Get(name string) (*etc.Instance, bool) { return db.cur.Load().Get(name) }

// Snapshot returns the current store snapshot; it stays valid (and
// immutable) across any number of subsequent reloads.
func (db *DB) Snapshot() *Store { return db.cur.Load() }

// Len is the instance count of the current snapshot.
func (db *DB) Len() int { return db.cur.Load().Len() }

// Path is the file the DB (re)loads from.
func (db *DB) Path() string { return db.path }

// Reload re-opens the store file and atomically swaps it in. On any
// error the current snapshot stays in place — a half-written or corrupt
// regeneration can never take down a serving replica.
func (db *DB) Reload() error {
	st, err := decodeFile(db.path)
	if err != nil {
		return err
	}
	db.cur.Store(st)
	db.reloads.Add(1)
	return nil
}

// Reloads counts successful Reload calls.
func (db *DB) Reloads() int64 { return db.reloads.Load() }

// appendFloats appends the little-endian encoding of vals.
func appendFloats(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// rowDigest hashes a plane with its dimensions for dedup candidate
// lookup; equality is always confirmed on the raw values.
func rowDigest(t, m int, row []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(t)<<32|uint64(m))
	h.Write(b[:])
	for _, v := range row {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// floatsEqual compares two planes bit-for-bit.
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func align8(n uint64) uint64 { return (n + 7) &^ 7 }
