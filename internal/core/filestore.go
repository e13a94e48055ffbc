package core

import (
	"fmt"

	"repro/internal/blob"
	"repro/internal/db"
	"repro/internal/disk"
	"repro/internal/extent"
	"repro/internal/fs"
	"repro/internal/units"
	"repro/internal/vclock"
)

// FileStore is the paper's file-based configuration (§4.1) behind the v2
// blob.Store API: each object in its own file on a dedicated NTFS-analog
// volume, with object names and metadata in database tables. The
// database isolates clients from physical location; here it charges the
// metadata costs of that design.
//
// Writers stream: Create/Replace open a temporary file, appends flow to
// the allocator in request-sized chunks, and Commit forces the data and
// atomically renames over the permanent file — the paper's safe-write
// protocol (§4) driven through a handle instead of one buffer. With
// blob.WithGroupCommit, Commit enqueues onto the store's commit queue
// and a batcher coalesces pending safe writes: each batch forces the
// volume's metadata (coalesced MFT writes, one log flush) and the
// metadata database's log once instead of per commit.
//
// The store is safe for concurrent callers: one store mutex serializes
// access to the single-threaded volume and metadata engines beneath.
type FileStore struct {
	store

	vol    *fs.Volume
	meta   *db.MetaTable
	metaDB *db.Database
	opts   blob.Options

	// Guarded by store.mu.
	crashes   map[string]bool // keys armed to crash at the next commit
	packCrash bool            // next PackObjects crashes mid-pack
}

// NewFileStore builds a file-backed store on a fresh simulated drive
// pair sharing clock. blob.WithCapacity is required; misconfiguration
// fails with blob.ErrBadOption.
func NewFileStore(clock *vclock.Clock, options ...blob.Option) (*FileStore, error) {
	opts := blob.NewOptions(options...)
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("core: NewFileStore: %w", err)
	}
	if opts.WriteRequestSize == 0 {
		opts.WriteRequestSize = 64 * units.KB
	}
	if opts.MetaCapacity == 0 {
		opts.MetaCapacity = 1 * units.GB
	}
	vol := fs.Format(dataDrive(clock, opts), fs.Config{DelayedAllocation: opts.DelayedAllocation})
	// Metadata database on its own drive pair, as the paper's deployment
	// gave SQL Server dedicated drives (§4.1).
	metaData := disk.New(disk.DefaultGeometry(opts.MetaCapacity), clock, disk.MetadataMode)
	metaLog := disk.New(disk.DefaultGeometry(256*units.MB), clock, disk.MetadataMode)
	metaDB := db.Open(metaData, metaLog, db.Config{})
	s := &FileStore{
		vol:     vol,
		meta:    metaDB.NewMetaTable("objects"),
		metaDB:  metaDB,
		opts:    opts,
		crashes: make(map[string]bool),
	}
	s.init(clock, opts, s, s.beginGroup, s.endGroup)
	return s, nil
}

// beginGroup opens a batch on both engines: the volume defers MFT
// writes and its log flush, the metadata database defers log forces.
func (s *FileStore) beginGroup() {
	s.vol.BeginBatch()
	s.metaDB.BeginGroup()
}

// endGroup issues the group force: coalesced MFT writes plus at most
// one volume log flush, and one metadata-database log write.
func (s *FileStore) endGroup() {
	s.vol.EndBatch()
	s.metaDB.EndGroup()
}

// ArmCommitCrash makes key's next Commit crash after its data is
// written and forced but before the atomic rename — the safe-write
// protocol's CrashAfterWrite point — returning an error wrapping
// blob.ErrCrashed and leaving the temp file and writer claim behind,
// as a process death would. Call Recover afterwards, as a restarted
// application would. Intended for crash-recovery drills and tests.
func (s *FileStore) ArmCommitCrash(key string) {
	s.mu.Lock()
	s.crashes[key] = true
	s.mu.Unlock()
}

// Recover models post-crash restart: orphaned safe-write temp files are
// swept, orphan packs from a crash mid-pack have their clusters freed,
// the volume log is flushed, and all writer claims are released (a
// crash kills every in-flight stream). It returns the number of temp
// files removed.
func (s *FileStore) Recover() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.vol.Recover()
	clear(s.inflight)
	clear(s.crashes)
	s.packCrash = false
	return n
}

// Name implements blob.Store.
func (s *FileStore) Name() string { return "filesystem" }

// Volume exposes the underlying filesystem for analysis tools.
func (s *FileStore) Volume() *fs.Volume { return s.vol }

// stage implements layout: the existence check and the safe-write temp
// file.
func (s *FileStore) stage(w *writer) error {
	if _, exists := s.vol.Lookup(w.key); exists && !w.replace {
		return fmt.Errorf("%w: %s", blob.ErrAlreadyExists, w.key)
	}
	tmp := fs.TempName(w.key)
	// A leftover temp from a previous crashed attempt is replaced.
	// Committed objects always have a metadata row and temps never do,
	// so a row under the temp name means a real object happens to be
	// named like our scratch file — leave it alone (the Create below
	// then fails instead of destroying it).
	if _, ok := s.vol.Lookup(tmp); ok && !s.meta.Lookup(tmp) {
		if err := s.vol.Delete(tmp); err != nil {
			return err
		}
	}
	f, err := s.vol.Create(tmp)
	if err != nil {
		return err
	}
	if s.opts.SizeHint {
		if err := f.SetSizeHint(w.size); err != nil {
			_ = s.vol.Delete(tmp)
			return err
		}
	}
	w.f = f
	return nil
}

// append implements layout: each write request reaches the allocator
// separately — the paper's §5.3 request granularity, owned by the
// store.
func (s *FileStore) append(w *writer, n int64, data []byte) error {
	req := s.opts.WriteRequestSize
	if req <= 0 {
		req = n
	}
	for off := int64(0); off < n; off += req {
		if err := w.ctx.Err(); err != nil {
			return err
		}
		c := min(req, n-off)
		var chunk []byte
		if data != nil {
			chunk = data[off : off+c]
		}
		s.mu.Lock()
		err := w.f.Append(c, chunk)
		s.mu.Unlock()
		if err != nil {
			return err
		}
		w.state.NoteAppended(c)
	}
	return nil
}

// publish implements layout: force the temp file, write the metadata
// row, and rename over the permanent file.
func (s *FileStore) publish(w *writer) (int64, bool, error) {
	// Close forces the data (and performs allocation under delayed
	// allocation — the one step that can still run out of space).
	if err := w.f.Close(); err != nil {
		return 0, false, err
	}
	if s.crashes[w.key] {
		// Armed simulated crash at the CrashAfterWrite protocol point:
		// data forced, rename never happens. The temp file and writer
		// claim stay behind for Recover to sweep, exactly as if the
		// process had died here.
		delete(s.crashes, w.key)
		return 0, false, fmt.Errorf("%w after write of %s", blob.ErrCrashed, w.f.Name())
	}
	old, hadOld := s.vol.Lookup(w.key)
	var oldSize int64
	if hadOld {
		oldSize = old.Size()
	}
	// Metadata first: the row mutation is the step that can fail (meta
	// drive full), so it happens before anything becomes visible. On a
	// failure the writer stays open and Abort discards the temp.
	if hadOld {
		if err := s.meta.Update(w.key); err != nil {
			return 0, false, err
		}
	} else {
		if err := s.meta.Insert(w.key); err != nil {
			return 0, false, err
		}
	}
	// Atomic commit point (ReplaceFile/rename(2) semantics). Rename of
	// a held temp cannot legitimately fail; roll the row back if it
	// somehow does — the synchronization burden §3.1 calls out.
	if err := s.vol.Rename(w.f.Name(), w.key); err != nil {
		if !hadOld {
			_ = s.meta.Delete(w.key)
		}
		return 0, false, err
	}
	return oldSize, hadOld, nil
}

// discard implements layout: delete the temp file if it survives. The
// name is derived from the key rather than w.f, which Recover may have
// swept and the volume recycled.
func (s *FileStore) discard(w *writer) {
	tmp := fs.TempName(w.key)
	if _, ok := s.vol.Lookup(tmp); ok {
		_ = s.vol.Delete(tmp)
	}
}

// open implements layout: the metadata row lookup, then the file open.
func (s *FileStore) open(key string) (int64, uint32, error) {
	if !s.meta.Lookup(key) {
		return 0, 0, fmt.Errorf("%w: %s", blob.ErrNotFound, key)
	}
	f, err := s.vol.Open(key)
	if err != nil {
		return 0, 0, err
	}
	return f.Size(), f.Tag(), nil
}

// tag implements layout. File tags come from the volume's monotonic
// counter, and a recycled File always gets a fresh one.
func (s *FileStore) tag(key string) uint32 {
	if f, ok := s.vol.Lookup(key); ok {
		return f.Tag()
	}
	return 0
}

// read implements layout.
func (s *FileStore) read(key string, all bool, off, length int64) ([]byte, error) {
	f, _ := s.vol.Lookup(key)
	if all {
		return f.ReadAll(), nil
	}
	return f.ReadAt(off, length)
}

// stat implements layout.
func (s *FileStore) stat(key string) (int64, error) {
	f, ok := s.vol.Lookup(key)
	if !ok {
		return 0, fmt.Errorf("%w: %s", blob.ErrNotFound, key)
	}
	return f.Size(), nil
}

// remove implements layout: the file and its metadata row.
func (s *FileStore) remove(key string) (int64, error) {
	size, err := s.stat(key)
	if err != nil {
		return 0, err
	}
	if err := s.vol.Delete(key); err != nil {
		return 0, err
	}
	if err := s.meta.Delete(key); err != nil {
		return 0, err
	}
	return size, nil
}

// list implements layout: every file but the temps of uncommitted
// writers.
func (s *FileStore) list() []string {
	names := s.vol.Names()
	out := names[:0]
	for _, n := range names {
		if !s.inflightTemp(n) {
			out = append(out, n)
		}
	}
	return out
}

// inflightTemp reports whether name is the temp file of an uncommitted
// writer (callers hold s.mu).
func (s *FileStore) inflightTemp(name string) bool {
	if len(name) <= len(fs.TempSuffix) || name[len(name)-len(fs.TempSuffix):] != fs.TempSuffix {
		return false
	}
	return s.inflight[name[:len(name)-len(fs.TempSuffix)]]
}

// ObjectCount implements blob.Store.
func (s *FileStore) ObjectCount() int { return len(s.Keys()) }

// FreeBytes implements blob.Store.
func (s *FileStore) FreeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vol.FreeBytes()
}

// CapacityBytes implements blob.Store.
func (s *FileStore) CapacityBytes() int64 { return s.vol.CapacityBytes() }

// EachObjectRuns implements frag.Source.
func (s *FileStore) EachObjectRuns(fn func(key string, bytes int64, runs []extent.Run)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vol.EachFile(func(f *fs.File) {
		if !s.inflightTemp(f.Name()) {
			fn(f.Name(), f.Size(), f.Runs())
		}
	})
}

// EachObjectTag implements frag.TagSource.
func (s *FileStore) EachObjectTag(fn func(key string, tag uint32)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vol.EachFile(func(f *fs.File) {
		if !s.inflightTemp(f.Name()) {
			fn(f.Name(), f.Tag())
		}
	})
}

var _ blob.Store = (*FileStore)(nil)
