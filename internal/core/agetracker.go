// Package core is the paper's primary contribution rendered as a
// library: the blob.Store get/put large-object abstraction (§4:
// "applications that make use of simple get/put storage primitives"),
// two interchangeable implementations — filesystem-backed and
// database-backed — with matched safe-replace semantics, and the
// storage-age clock (§4.4) that makes long-term fragmentation
// measurements comparable across systems, volume sizes, and hardware.
package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/blob"
)

// AgeTracker maintains the paper's storage-age metric for a store: "the
// ratio of bytes in objects that once existed on a volume to the number
// of bytes in use on the volume" (§4.4) — for a safe-write workload,
// replaced bytes divided by live bytes ("safe writes per object").
//
// Use it by routing all mutations through the tracker. Retired and live
// byte counts are charged when a streaming writer COMMITS, never at
// buffer hand-off: an aborted or crashed stream leaves the metric
// untouched, exactly as it leaves the store untouched.
//
// Concurrent calls are free of data races, but the counts are exact
// only while each key has at most one mutator at a time. With two, a
// Delete's Stat, store delete and size lookup can interleave with a
// same-key ReplaceWriter's Commit: the delete can then retire the
// version that commit just published, counting one retirement too many
// and subtracting the live bytes of a version that is still live. The
// drivers here keep the contract rather than pay for a per-key lock:
// the executor's streams each mutate their own keys, and
// trace.Partition routes all of one key's ops to one stream.
//
// The byte counters are plain atomics, so Age — which churn sources
// poll before every write — is two loads with no lock. The per-key
// committed-size map stays under the mutex for direct callers; k
// concurrent executor streams instead shard it through StreamView,
// which keeps a goroutine-local map and merges at phase end.
type AgeTracker struct {
	store blob.Store

	retiredBytes atomic.Int64 // bytes of object versions retired since baseline
	liveBytes    atomic.Int64

	// mu guards sizes: the tracker's own view of each routed key — the
	// last committed size, or a dead entry once the tracker deleted the
	// key. Dead entries invalidate the old-size snapshot an in-flight
	// ReplaceWriter took before the delete, so a version is never
	// retired twice.
	mu    sync.Mutex
	sizes map[string]trackedSize
}

// trackedSize is one entry of AgeTracker.sizes.
type trackedSize struct {
	size int64
	live bool
}

// NewAgeTracker wraps store. Storage age starts at zero; call
// ResetBaseline after bulk load so that age 0 corresponds to the freshly
// loaded store, as in the paper's figures.
func NewAgeTracker(store blob.Store) *AgeTracker {
	return &AgeTracker{store: store, sizes: make(map[string]trackedSize)}
}

// Store returns the wrapped store.
func (a *AgeTracker) Store() blob.Store { return a.store }

// Age returns the current storage age. Lock-free: the churn sources
// poll this before every write, so at high stream counts it must not
// serialize the fleet.
func (a *AgeTracker) Age() float64 {
	live := a.liveBytes.Load()
	if live == 0 {
		return 0
	}
	return float64(a.retiredBytes.Load()) / float64(live)
}

// LiveBytes returns the tracked live byte count.
func (a *AgeTracker) LiveBytes() int64 { return a.liveBytes.Load() }

// RetiredBytes returns bytes retired since the baseline.
func (a *AgeTracker) RetiredBytes() int64 { return a.retiredBytes.Load() }

// ResetBaseline zeroes the retired-byte counter (end of bulk load).
func (a *AgeTracker) ResetBaseline() { a.retiredBytes.Store(0) }

// lookup returns the tracker's committed-size entry for key under the
// mutex.
func (a *AgeTracker) lookup(key string) (trackedSize, bool) {
	a.mu.Lock()
	e, ok := a.sizes[key]
	a.mu.Unlock()
	return e, ok
}

// charge applies one committed create/replace to the byte counters
// given the previous version's size (if any).
//
//fragvet:ignore vclockpurity byte accounting, not a disk-cost path; the drive charges the clock for the I/O itself
func (a *AgeTracker) charge(size, old int64, existed bool) {
	if existed {
		a.retiredBytes.Add(old)
		a.liveBytes.Add(-old)
	}
	a.liveBytes.Add(size)
}

// chargeDelete applies one delete of an old-size version.
//
//fragvet:ignore vclockpurity byte accounting, not a disk-cost path; the drive charges the clock for the I/O itself
func (a *AgeTracker) chargeDelete(old int64) {
	a.retiredBytes.Add(old)
	a.liveBytes.Add(-old)
}

// accountant is the commit-time charging seam of trackedWriter: the
// tracker itself (shared map under the mutex) or one executor stream's
// StreamView (goroutine-local map, merged at phase end).
type accountant interface {
	commitWrite(key string, size, snapSize int64, snapOK bool)
}

// commitWrite records one committed create/replace. The old size comes
// from the tracker's own committed-size map so interleaved streams to
// the same key charge exactly once per retired version; the snapshot
// taken at writer open only covers keys first written outside the
// tracker.
func (a *AgeTracker) commitWrite(key string, size, snapSize int64, snapOK bool) {
	a.mu.Lock()
	var old int64
	existed := false
	if e, known := a.sizes[key]; known {
		old, existed = e.size, e.live
	} else {
		old, existed = snapSize, snapOK
	}
	a.sizes[key] = trackedSize{size: size, live: true}
	a.mu.Unlock()
	a.charge(size, old, existed)
}

// CreateWriter starts a tracked streaming create; live bytes are charged
// when the returned writer commits.
func (a *AgeTracker) CreateWriter(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return createWriter(ctx, a.store, a, key, size)
}

// ReplaceWriter starts a tracked streaming safe replace; the retired old
// version and the new live bytes are charged when the returned writer
// commits.
func (a *AgeTracker) ReplaceWriter(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return replaceWriter(ctx, a.store, a, key, size)
}

// trackedWriterPool recycles the charging wrappers — one per mutation,
// so at high stream counts they alloc-churn like the handles they wrap.
var trackedWriterPool = sync.Pool{New: func() any { return new(trackedWriter) }}

func createWriter(ctx context.Context, store blob.Store, acct accountant, key string, size int64) (blob.Writer, error) {
	w, err := store.Create(ctx, key, size)
	if err != nil {
		return nil, err
	}
	t := trackedWriterPool.Get().(*trackedWriter)
	*t = trackedWriter{Writer: w, acct: acct, key: key, size: size}
	return t, nil
}

func replaceWriter(ctx context.Context, store blob.Store, acct accountant, key string, size int64) (blob.Writer, error) {
	// The stat models the application's metadata lookup before a safe
	// write and snapshots the old size for keys the accountant has never
	// routed (a store populated before the tracker attached).
	var snapSize int64
	snapOK := false
	if info, err := store.Stat(ctx, key); err == nil {
		snapSize, snapOK = info.Size, true
	}
	w, err := store.Replace(ctx, key, size)
	if err != nil {
		return nil, err
	}
	t := trackedWriterPool.Get().(*trackedWriter)
	*t = trackedWriter{Writer: w, acct: acct, key: key, size: size, snapSize: snapSize, snapOK: snapOK}
	return t, nil
}

// trackedWriter charges the storage-age counters at Commit time.
type trackedWriter struct {
	blob.Writer
	acct     accountant
	key      string
	size     int64
	snapSize int64
	snapOK   bool
	charged  bool
}

// Commit commits the underlying writer, then charges the metric. A
// successful commit retires the wrapper to the pool; the backend writer
// reference stays behind so a misuse double-Commit still reaches the
// backend's ErrClosed instead of a nil handle.
func (w *trackedWriter) Commit() error {
	if err := w.Writer.Commit(); err != nil {
		return err
	}
	if !w.charged {
		w.acct.commitWrite(w.key, w.size, w.snapSize, w.snapOK)
		w.charged = true
		trackedWriterPool.Put(w)
	}
	return nil
}

// Put stores a new whole-buffer object through the tracker.
func (a *AgeTracker) Put(ctx context.Context, key string, size int64, data []byte) error {
	w, err := a.CreateWriter(ctx, key, size)
	if err != nil {
		return err
	}
	return blob.WriteAll(w, size, data)
}

// Replace performs a whole-buffer safe replace, retiring the old
// version's bytes at commit.
func (a *AgeTracker) Replace(ctx context.Context, key string, size int64, data []byte) error {
	w, err := a.ReplaceWriter(ctx, key, size)
	if err != nil {
		return err
	}
	return blob.WriteAll(w, size, data)
}

// Delete removes an object, retiring its bytes.
func (a *AgeTracker) Delete(ctx context.Context, key string) error {
	info, err := a.store.Stat(ctx, key)
	if err != nil {
		return err
	}
	if err := a.store.Delete(ctx, key); err != nil {
		return err
	}
	old := info.Size
	a.mu.Lock()
	if e, known := a.sizes[key]; known && e.live {
		old = e.size
	}
	a.sizes[key] = trackedSize{live: false}
	a.mu.Unlock()
	a.chargeDelete(old)
	return nil
}

// StreamView returns a goroutine-local charging view for one executor
// stream. The view routes mutations to the same store and the same
// atomic byte counters — Age observed through the tracker is exact at
// every commit — but keeps its committed-size entries in a private map,
// touching the tracker's shared map (under the mutex) only on the
// FIRST encounter of each key. Call Merge when the phase ends to fold
// the view's entries back; the Executor does this for its streams.
//
// Views assume each key is mutated by at most one view per phase (the
// per-stream keyspace discipline every workload here follows; trace
// partitioning routes by key for the same reason). Two views racing on
// one key within a phase would each charge against their own last-seen
// size — exactly the anomaly the shared map exists to prevent — so
// cross-stream keys must stay on the plain tracker.
func (a *AgeTracker) StreamView() *StreamView {
	return &StreamView{a: a, local: make(map[string]trackedSize)}
}

// StreamView is one stream's private AgeTracker frontend. Not safe for
// concurrent use — it belongs to its stream's goroutine; Merge is
// called after the stream is done.
type StreamView struct {
	a     *AgeTracker
	local map[string]trackedSize
}

// Tracker returns the shared tracker behind the view.
func (v *StreamView) Tracker() *AgeTracker { return v.a }

// lookup consults the view's private map first and falls back to the
// shared map for keys this stream has not touched this phase.
func (v *StreamView) lookup(key string) (trackedSize, bool) {
	if e, ok := v.local[key]; ok {
		return e, true
	}
	return v.a.lookup(key)
}

// commitWrite is the view-side accountant: identical charging rules,
// private size map.
func (v *StreamView) commitWrite(key string, size, snapSize int64, snapOK bool) {
	var old int64
	existed := false
	if e, known := v.lookup(key); known {
		old, existed = e.size, e.live
	} else {
		old, existed = snapSize, snapOK
	}
	v.local[key] = trackedSize{size: size, live: true}
	v.a.charge(size, old, existed)
}

// CreateWriter starts a tracked streaming create charged to this view.
func (v *StreamView) CreateWriter(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return createWriter(ctx, v.a.store, v, key, size)
}

// ReplaceWriter starts a tracked streaming safe replace charged to this
// view.
func (v *StreamView) ReplaceWriter(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return replaceWriter(ctx, v.a.store, v, key, size)
}

// Put stores a new whole-buffer object through the view.
func (v *StreamView) Put(ctx context.Context, key string, size int64, data []byte) error {
	w, err := v.CreateWriter(ctx, key, size)
	if err != nil {
		return err
	}
	return blob.WriteAll(w, size, data)
}

// Replace performs a whole-buffer safe replace through the view.
func (v *StreamView) Replace(ctx context.Context, key string, size int64, data []byte) error {
	w, err := v.ReplaceWriter(ctx, key, size)
	if err != nil {
		return err
	}
	return blob.WriteAll(w, size, data)
}

// Delete removes an object through the view, retiring its bytes.
func (v *StreamView) Delete(ctx context.Context, key string) error {
	info, err := v.a.store.Stat(ctx, key)
	if err != nil {
		return err
	}
	if err := v.a.store.Delete(ctx, key); err != nil {
		return err
	}
	old := info.Size
	if e, known := v.lookup(key); known && e.live {
		old = e.size
	}
	v.local[key] = trackedSize{live: false}
	v.a.chargeDelete(old)
	return nil
}

// Merge folds the view's committed-size entries into the shared map and
// empties the view. Call once the owning stream has finished its phase;
// the view remains usable for a subsequent phase.
func (v *StreamView) Merge() {
	if len(v.local) == 0 {
		return
	}
	v.a.mu.Lock()
	for k, e := range v.local {
		v.a.sizes[k] = e
	}
	v.a.mu.Unlock()
	clear(v.local)
}
