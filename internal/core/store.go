package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/blob"
	"repro/internal/disk"
	"repro/internal/fs"
	"repro/internal/vclock"
)

// store is the front half FileStore and DBStore share: how a version is
// claimed, staged, published, pinned and retired. It owns the writer
// claims, the live-byte count, the group-commit pipeline and the pooled
// read and write handles; the backend behind it supplies only its
// placement policy through layout.
//
// The store is safe for concurrent callers: one mutex serializes every
// call into the single-threaded simulation engines beneath, and at most
// one uncommitted writer exists per key.
type store struct {
	lay       layout
	clock     *vclock.Clock
	committer *blob.GroupCommitter

	mu        sync.Mutex // guards the layout's engines, liveBytes, inflight
	liveBytes int64
	inflight  map[string]bool // keys with an uncommitted writer
}

// layout is a backend's placement policy under the shared front half.
// Every method but append runs with store.mu held.
type layout interface {
	// stage checks w.key against the create/replace rule and prepares
	// the backend's staging area for w.
	stage(w *writer) error
	// append hands n appended bytes to the staging area. It runs without
	// store.mu and takes the lock itself where it reaches an engine.
	append(w *writer, n int64, data []byte) error
	// publish makes w's staged version the live one, returning the size
	// of the version it retired, if any.
	publish(w *writer) (oldSize int64, hadOld bool, err error)
	// discard drops w's staged bytes; the live version is untouched.
	discard(w *writer)
	// open charges the backend's open path and returns the live
	// version's size and owner tag.
	open(key string) (size int64, tag uint32, err error)
	// tag returns the live version's owner tag, or 0 when key is absent.
	// Tags are never reused, so a changed tag means a new version.
	tag(key string) uint32
	// read reads the live version: the whole object when all is set,
	// otherwise length bytes at off.
	read(key string, all bool, off, length int64) ([]byte, error)
	// stat returns the live version's size.
	stat(key string) (int64, error)
	// remove deletes the live version, returning its size.
	remove(key string) (int64, error)
	// list returns the committed keys.
	list() []string
}

// init wires the front half over lay. begin and end are the backend's
// group-force hooks; the committer runs them under s.mu.
func (s *store) init(clock *vclock.Clock, opts blob.Options, lay layout, begin, end func()) {
	s.lay = lay
	s.clock = clock
	s.inflight = make(map[string]bool)
	s.committer = blob.NewGroupCommitter(opts.GroupCommitBatch, opts.GroupCommitDelay,
		s.locked(begin), s.locked(end))
	if opts.CommitObserver != nil {
		s.committer.SetObserver(clock, opts.CommitObserver)
	}
}

// locked wraps fn to run under s.mu.
func (s *store) locked(fn func()) func() {
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		fn()
	}
}

// dataDrive builds the store's data drive from the validated options.
func dataDrive(clock *vclock.Clock, opts blob.Options) *disk.Drive {
	geo := disk.DefaultGeometry(opts.Capacity)
	if opts.Geometry != nil {
		geo = *opts.Geometry
	}
	var diskOpts []disk.Option
	if opts.NoOwnerMap {
		diskOpts = append(diskOpts, disk.WithoutOwnerMap())
	}
	return disk.New(geo, clock, opts.DiskMode, diskOpts...)
}

// Close shuts down the group-commit pipeline. The store stays usable;
// later commits apply synchronously.
func (s *store) Close() error {
	s.committer.Close()
	return nil
}

// CommitStats returns the group-commit pipeline counters.
func (s *store) CommitStats() blob.CommitStats { return s.committer.Stats() }

// Clock implements blob.Store.
func (s *store) Clock() *vclock.Clock { return s.clock }

// Open implements blob.Store.
func (s *store) Open(ctx context.Context, key string) (blob.Reader, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	size, tag, err := s.lay.open(key)
	if err != nil {
		return nil, err
	}
	r := readerPool.Get().(*reader)
	*r = reader{s: s, ctx: ctx, key: key, size: size, tag: tag}
	return r, nil
}

// reader is a read handle pinned to one object version by its owner
// tag: every new version — a commit, a compaction or a pack — gets a
// fresh tag, so a mismatch means the version opened was replaced or
// deleted and reads fail with ErrNotFound. Handles are pooled: Close
// retires the handle (it keeps returning ErrClosed until the pool hands
// it to a new Open).
type reader struct {
	s      *store
	ctx    context.Context
	key    string
	size   int64
	tag    uint32
	closed bool
}

// readerPool recycles read handles; at high stream counts the per-read
// handle allocation was a top-ten allocation site.
var readerPool = sync.Pool{New: func() any { return new(reader) }}

// Size implements blob.Reader.
func (r *reader) Size() int64 { return r.size }

// ReadAll implements blob.Reader.
func (r *reader) ReadAll() ([]byte, error) { return r.read(true, 0, 0) }

// ReadAt implements blob.Reader.
func (r *reader) ReadAt(off, length int64) ([]byte, error) { return r.read(false, off, length) }

func (r *reader) read(all bool, off, length int64) ([]byte, error) {
	if r.closed {
		return nil, fmt.Errorf("%w: reader for %s", blob.ErrClosed, r.key)
	}
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if r.s.lay.tag(r.key) != r.tag {
		return nil, fmt.Errorf("%w: %s (version replaced or deleted)", blob.ErrNotFound, r.key)
	}
	return r.s.lay.read(r.key, all, off, length)
}

// Close implements blob.Reader. The first Close retires the handle to
// the pool; later Closes on the same handle are no-ops.
func (r *reader) Close() error {
	if !r.closed {
		r.closed = true
		readerPool.Put(r)
	}
	return nil
}

// Create implements blob.Store.
func (s *store) Create(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return s.newWriter(ctx, key, size, false)
}

// Replace implements blob.Store: a streaming safe write (§4) on the
// filesystem, its transactional counterpart on the database.
func (s *store) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return s.newWriter(ctx, key, size, true)
}

func (s *store) newWriter(ctx context.Context, key string, size int64, replace bool) (blob.Writer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, fmt.Errorf("%w: write of %d bytes to %s", blob.ErrInvalidSize, size, key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[key] {
		return nil, fmt.Errorf("%w: %s", blob.ErrBusy, key)
	}
	w := writerPool.Get().(*writer)
	apply, buf := w.apply, w.buf[:0]
	*w = writer{s: s, ctx: ctx, key: key, state: blob.NewStreamState(key, size),
		size: size, replace: replace, buf: buf, apply: apply}
	if apply == nil {
		// Bind the commit closure once per pooled instance; the method
		// value pins w itself, so it stays correct across reuses and
		// saves a closure allocation per commit.
		w.apply = w.commitApply
	}
	if err := s.lay.stage(w); err != nil {
		w.retire()
		return nil, err
	}
	s.inflight[key] = true
	return w, nil
}

// writer streams one object version into the backend's staging area —
// the safe-write temp file on the filesystem, a client-side buffer on
// the database — and publishes it at Commit. Writers are pooled: a
// successful Commit or an Abort retires the handle (its stream state
// stays closed until the pool hands it to a new Create/Replace).
type writer struct {
	s       *store
	ctx     context.Context
	key     string
	state   blob.StreamState
	size    int64 // declared total
	replace bool
	f       *fs.File     // filesystem: the safe-write temp file
	buf     []byte       // database: the buffered payload; capacity rides the pool
	apply   func() error // cached commitApply method value
}

// writerPool recycles write handles across commits.
var writerPool = sync.Pool{New: func() any { return new(writer) }}

// retire returns a finished (committed, aborted or never staged) writer
// to the pool.
func (w *writer) retire() {
	*w = writer{apply: w.apply, buf: w.buf[:0]}
	w.state.Close()
	writerPool.Put(w)
}

// Append implements blob.Writer.
func (w *writer) Append(n int64, data []byte) error {
	if err := w.state.BeginAppend(w.ctx, n, data); err != nil {
		return err
	}
	return w.s.lay.append(w, n, data)
}

// Write implements io.Writer over Append.
func (w *writer) Write(p []byte) (int, error) {
	if err := w.Append(int64(len(p)), p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Commit implements blob.Writer: the atomic publish point. The commit
// rides the store's group-commit pipeline — with batching enabled it
// waits in the commit queue and shares one backend force with the rest
// of its batch; the error that comes back is this writer's own.
func (w *writer) Commit() error {
	if err := w.state.BeginCommit(w.ctx); err != nil {
		return err
	}
	err := w.s.committer.Do(w.apply)
	if err == nil {
		// Only a fully successful commit retires the handle: after a
		// failed apply the writer stays open for Abort.
		w.retire()
	}
	return err
}

// commitApply performs the publish work of one commit, with the
// backend's per-commit forces deferred to the surrounding batch.
func (w *writer) commitApply() error {
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	oldSize, hadOld, err := s.lay.publish(w)
	if err != nil {
		return err
	}
	if hadOld {
		s.liveBytes -= oldSize
	}
	s.liveBytes += w.size
	delete(s.inflight, w.key)
	w.state.Close()
	return nil
}

// Abort implements blob.Writer: the previous version is untouched.
func (w *writer) Abort() error {
	if w.state.Closed() {
		return nil
	}
	s := w.s
	s.mu.Lock()
	s.lay.discard(w)
	delete(s.inflight, w.key)
	s.mu.Unlock()
	w.retire()
	return nil
}

// Delete implements blob.Store.
func (s *store) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	size, err := s.lay.remove(key)
	if err != nil {
		return err
	}
	s.liveBytes -= size
	return nil
}

// Stat implements blob.Store.
func (s *store) Stat(ctx context.Context, key string) (blob.Info, error) {
	if err := ctx.Err(); err != nil {
		return blob.Info{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	size, err := s.lay.stat(key)
	if err != nil {
		return blob.Info{}, err
	}
	return blob.Info{Key: key, Size: size}, nil
}

// Keys implements blob.Store.
func (s *store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lay.list()
}

// LiveBytes implements blob.Store.
func (s *store) LiveBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveBytes
}

// rewrite runs one maintenance rewrite of key through the group-commit
// pipeline under s.mu, so its backend force is batched with concurrent
// foreground commits. A key with an uncommitted writer fails with
// blob.ErrBusy so the compactor can skip and retry later.
func (s *store) rewrite(ctx context.Context, key string, fn func() (int64, error)) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var moved int64
	err := s.committer.Do(func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.inflight[key] {
			return fmt.Errorf("%w: writer in flight on %s", blob.ErrBusy, key)
		}
		var err error
		moved, err = fn()
		return err
	})
	return moved, err
}
