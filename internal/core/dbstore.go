package core

import (
	"fmt"

	"repro/internal/blob"
	"repro/internal/db"
	"repro/internal/disk"
	"repro/internal/extent"
	"repro/internal/units"
	"repro/internal/vclock"
)

// DBStore is the paper's database configuration (§4.2) behind the v2
// blob.Store API: objects stored as out-of-row BLOBs with metadata in
// the same filegroup, bulk-logged mode, a dedicated log drive.
//
// Writers accumulate appended bytes client-side and hand the object to
// the engine at Commit in one implicit transaction — the §3.1 shape of
// database client interfaces — inside which the engine still allocates
// in request-sized chunks, so layout behaviour matches the v1 API
// exactly. Until Commit nothing is visible, matching the filesystem
// backend's safe-write semantics.
//
// With blob.WithGroupCommit, Commit enqueues onto the store's commit
// queue and a batcher coalesces pending transactions: the engine forces
// its log ONCE per batch — one sequential write covering every record —
// instead of once per transaction, the §3.1 amortization.
//
// The store is safe for concurrent callers: one store mutex serializes
// access to the single-threaded engine beneath.
type DBStore struct {
	store

	eng *db.Database
}

// NewDBStore builds a database-backed store on fresh simulated drives
// sharing clock. blob.WithCapacity is required; misconfiguration fails
// with blob.ErrBadOption.
func NewDBStore(clock *vclock.Clock, options ...blob.Option) (*DBStore, error) {
	opts := blob.NewOptions(options...)
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("core: NewDBStore: %w", err)
	}
	if opts.LogCapacity == 0 {
		opts.LogCapacity = 2 * units.GB
	}
	data := dataDrive(clock, opts)
	logDrive := disk.New(disk.DefaultGeometry(opts.LogCapacity), clock, disk.MetadataMode)
	cfg := db.Config{
		WriteRequestSize: opts.WriteRequestSize,
		FullLogging:      opts.FullLogging,
		GhostHorizon:     opts.GhostHorizon,
	}
	s := &DBStore{eng: db.Open(data, logDrive, cfg)}
	// The group force: the engine defers its per-transaction log forces
	// and writes the accumulated records in one sequential write.
	s.init(clock, opts, s, s.eng.BeginGroup, s.eng.EndGroup)
	return s, nil
}

// Name implements blob.Store.
func (s *DBStore) Name() string { return "database" }

// Engine exposes the underlying database for analysis tools.
func (s *DBStore) Engine() *db.Database { return s.eng }

// stage implements layout: a Create checks the row; the buffer needs no
// preparation.
func (s *DBStore) stage(w *writer) error {
	if !w.replace && s.eng.Has(w.key) {
		return fmt.Errorf("%w: %s", blob.ErrAlreadyExists, w.key)
	}
	return nil
}

// append implements layout: bytes accumulate client-side until Commit.
func (s *DBStore) append(w *writer, n int64, data []byte) error {
	if data != nil {
		w.buf = append(w.buf, data...)
	}
	w.state.NoteAppended(n)
	return nil
}

// publish implements layout: one implicit engine transaction writes the
// BLOB (chunked to the configured request size internally), inserts or
// updates the row, and ghosts any old pages.
func (s *DBStore) publish(w *writer) (int64, bool, error) {
	var data []byte
	if w.state.WithData() {
		data = w.buf
	}
	if !w.replace {
		return 0, false, s.eng.Put(w.key, w.size, data)
	}
	old, err := s.eng.Stat(w.key)
	existed := err == nil
	if err := s.eng.Replace(w.key, w.size, data); err != nil {
		return 0, false, err
	}
	return old, existed, nil
}

// discard implements layout: nothing reached the engine, so the
// previous version is untouched by construction.
func (s *DBStore) discard(*writer) {}

// open implements layout.
func (s *DBStore) open(key string) (int64, uint32, error) {
	size, err := s.eng.Stat(key)
	if err != nil {
		return 0, 0, err
	}
	return size, s.eng.Tag(key), nil
}

// tag implements layout. Tag lookups are free of simulated cost.
func (s *DBStore) tag(key string) uint32 { return s.eng.Tag(key) }

// read implements layout.
func (s *DBStore) read(key string, all bool, off, length int64) ([]byte, error) {
	if all {
		return s.eng.Get(key)
	}
	return s.eng.GetRange(key, off, length)
}

// stat implements layout.
func (s *DBStore) stat(key string) (int64, error) { return s.eng.Stat(key) }

// remove implements layout.
func (s *DBStore) remove(key string) (int64, error) {
	size, err := s.eng.Stat(key)
	if err != nil {
		return 0, err
	}
	return size, s.eng.Delete(key)
}

// list implements layout.
func (s *DBStore) list() []string { return s.eng.Keys() }

// ObjectCount implements blob.Store.
func (s *DBStore) ObjectCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.ObjectCount()
}

// FreeBytes implements blob.Store.
func (s *DBStore) FreeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.FreeBytes()
}

// CapacityBytes implements blob.Store.
func (s *DBStore) CapacityBytes() int64 { return s.eng.CapacityBytes() }

// EachObjectRuns implements frag.Source.
func (s *DBStore) EachObjectRuns(fn func(key string, bytes int64, runs []extent.Run)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eng.EachObject(fn)
}

// EachObjectTag implements frag.TagSource.
func (s *DBStore) EachObjectTag(fn func(key string, tag uint32)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range s.eng.Keys() {
		fn(k, s.eng.Tag(k))
	}
}

var _ blob.Store = (*DBStore)(nil)
