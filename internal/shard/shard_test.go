package shard_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/frag"
	"repro/internal/shard"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// mkSharded builds an n-shard filesystem-backed store with perShard
// bytes of capacity on each shard.
func mkSharded(t *testing.T, n int, perShard int64, opts ...blob.Option) *shard.Store {
	t.Helper()
	clock := vclock.New()
	all := append([]blob.Option{
		blob.WithCapacity(perShard),
		blob.WithDiskMode(disk.MetadataMode),
	}, opts...)
	children := make([]blob.Store, n)
	for i := range children {
		c, err := core.NewFileStore(clock, all...)
		if err != nil {
			t.Fatal(err)
		}
		children[i] = c
	}
	s, err := shard.New(children...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := shard.New(); !errors.Is(err, shard.ErrNoShards) {
		t.Fatalf("New() = %v, want ErrNoShards", err)
	}
	clock := vclock.New()
	child, err := core.NewFileStore(clock, blob.WithCapacity(64*units.MB))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.New(child, nil); !errors.Is(err, shard.ErrNilShard) {
		t.Fatalf("New(child, nil) = %v, want ErrNilShard", err)
	}
	other, err := core.NewFileStore(vclock.New(), blob.WithCapacity(64*units.MB))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.New(child, other); !errors.Is(err, shard.ErrClockMismatch) {
		t.Fatalf("New over two clocks = %v, want ErrClockMismatch", err)
	}
	s, err := shard.New(child)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 1 || s.Clock() != clock {
		t.Fatalf("NumShards=%d clock=%p", s.NumShards(), s.Clock())
	}
}

func TestName(t *testing.T) {
	clock := vclock.New()
	fsChild, err := core.NewFileStore(clock, blob.WithCapacity(64*units.MB))
	if err != nil {
		t.Fatal(err)
	}
	dbChild, err := core.NewDBStore(clock, blob.WithCapacity(64*units.MB))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := shard.New(fsChild, dbChild)
	if err != nil {
		t.Fatal(err)
	}
	if got := mixed.Name(); got != "sharded-2(database+filesystem)" {
		t.Fatalf("Name() = %q", got)
	}
	homo := mkSharded(t, 4, 64*units.MB)
	if got := homo.Name(); got != "sharded-4(filesystem)" {
		t.Fatalf("Name() = %q", got)
	}
}

// TestRendezvousRouting pins the properties the router exists for:
// deterministic placement, reasonable balance, and minimal movement when
// the shard count changes.
func TestRendezvousRouting(t *testing.T) {
	s8 := mkSharded(t, 8, 64*units.MB)
	s9 := mkSharded(t, 9, 64*units.MB)

	const keys = 4096
	counts := make([]int, 8)
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("obj-%08d", i)
		a, b := s8.ShardFor(key), s8.ShardFor(key)
		if a != b {
			t.Fatalf("routing of %q not deterministic: %d vs %d", key, a, b)
		}
		counts[a]++
		// Growing 8 -> 9 shards must only move keys onto the new shard,
		// never between surviving shards.
		n := s9.ShardFor(key)
		if n != a {
			if n != 8 {
				t.Fatalf("key %q moved between surviving shards: %d -> %d", key, a, n)
			}
			moved++
		}
	}
	// Balance: each shard should hold roughly keys/8; allow a wide band
	// (FNV-1a over short keys is not perfectly uniform).
	want := keys / 8
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("shard %d holds %d of %d keys, want ~%d", i, c, keys, want)
		}
	}
	// Movement: ~1/9 of keys should land on the new shard; accept 5-20%.
	if frac := float64(moved) / keys; frac < 0.05 || frac > 0.20 {
		t.Fatalf("%.1f%% of keys moved growing 8->9 shards, want ~11%%", frac*100)
	}
}

// TestOperationsRouteToOwner pins that data written through the sharded
// store lands on (only) the owning child and every read path agrees.
func TestOperationsRouteToOwner(t *testing.T) {
	ctx := context.Background()
	s := mkSharded(t, 4, 64*units.MB)
	const n = 40
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("obj-%03d", i)
		if err := blob.Put(ctx, s, key, 256*units.KB, nil); err != nil {
			t.Fatal(err)
		}
		owner := s.ShardFor(key)
		for j := 0; j < s.NumShards(); j++ {
			_, err := s.Shard(j).Stat(ctx, key)
			if j == owner && err != nil {
				t.Fatalf("owner shard %d missing %s: %v", j, key, err)
			}
			if j != owner && !errors.Is(err, blob.ErrNotFound) {
				t.Fatalf("non-owner shard %d has %s (err=%v)", j, key, err)
			}
		}
	}
	if s.ObjectCount() != n {
		t.Fatalf("ObjectCount = %d, want %d", s.ObjectCount(), n)
	}
	if got := s.LiveBytes(); got != n*256*units.KB {
		t.Fatalf("LiveBytes = %d", got)
	}
	if got := len(s.Keys()); got != n {
		t.Fatalf("Keys() returned %d keys", got)
	}
	// Aggregate capacity/free span all children.
	if s.CapacityBytes() != 4*s.Shard(0).CapacityBytes() {
		t.Fatalf("CapacityBytes = %d", s.CapacityBytes())
	}
	if s.FreeBytes() <= 0 || s.FreeBytes() >= s.CapacityBytes() {
		t.Fatalf("FreeBytes = %d of %d", s.FreeBytes(), s.CapacityBytes())
	}
}

// TestSnapshotAccounting pins the aggregated per-shard stats: live
// bytes, fragments, occupancy, and totals that match the store's own
// accounting surface.
func TestSnapshotAccounting(t *testing.T) {
	ctx := context.Background()
	s := mkSharded(t, 4, 64*units.MB)
	const objSize = 512 * units.KB
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%03d", i)
		if err := blob.Put(ctx, s, keys[i], objSize, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	if snap.Objects != len(keys) || snap.LiveBytes != int64(len(keys))*objSize {
		t.Fatalf("snapshot totals: %+v", snap)
	}

	if err := blob.Replace(ctx, s, keys[7], objSize/2, nil); err != nil {
		t.Fatal(err)
	}
	gone := keys[13]
	if err := s.Delete(ctx, gone); err != nil {
		t.Fatal(err)
	}

	snap = s.Snapshot()
	for _, si := range snap.Shards {
		if si.Backend != "filesystem" {
			t.Fatalf("shard %d backend %q", si.Index, si.Backend)
		}
		if si.CapacityBytes != s.Shard(si.Index).CapacityBytes() {
			t.Fatalf("shard %d capacity %d != child %d",
				si.Index, si.CapacityBytes, s.Shard(si.Index).CapacityBytes())
		}
		if occ := si.Occupancy(); occ < 0 || occ > 1 {
			t.Fatalf("shard %d occupancy %f", si.Index, occ)
		}
		if si.Objects > 0 && si.MeanFragments < 1 {
			t.Fatalf("shard %d has %d objects but %.2f fragments/object",
				si.Index, si.Objects, si.MeanFragments)
		}
	}
	if snap.Objects != len(keys)-1 {
		t.Fatalf("Objects = %d after delete", snap.Objects)
	}
	if snap.LiveBytes != s.LiveBytes() {
		t.Fatalf("snapshot live %d != store live %d", snap.LiveBytes, s.LiveBytes())
	}
	if snap.MeanFragments < 1 {
		t.Fatalf("MeanFragments = %.2f", snap.MeanFragments)
	}
	if snap.LiveImbalance < 0 {
		t.Fatalf("LiveImbalance = %f", snap.LiveImbalance)
	}
	// A deleted key can be recreated through the router.
	if err := blob.Put(ctx, s, gone, objSize, nil); err != nil {
		t.Fatal(err)
	}
}

// TestErrorPassThrough pins that child failures surface the blob
// sentinels unchanged through the shard layer.
func TestErrorPassThrough(t *testing.T) {
	ctx := context.Background()
	s := mkSharded(t, 4, 16*units.MB)
	if _, err := s.Open(ctx, "ghost"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("Open missing = %v", err)
	}
	if err := s.Delete(ctx, "ghost"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("Delete missing = %v", err)
	}
	// An object bigger than one shard's volume fails with ErrNoSpaceLeft
	// even though the aggregate store could hold it: objects never span
	// shards.
	if err := blob.Put(ctx, s, "big", 32*units.MB, nil); !errors.Is(err, blob.ErrNoSpaceLeft) {
		t.Fatalf("oversized put = %v, want ErrNoSpaceLeft", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Open(canceled, "any"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Open canceled = %v", err)
	}
	if _, err := s.Create(canceled, "any", units.MB); !errors.Is(err, context.Canceled) {
		t.Fatalf("Create canceled = %v", err)
	}
}

// TestParallelAcrossShards drives concurrent writers and snapshots over
// distinct keys; with each shard owning its own engine this exercises
// true cross-shard parallelism (meaningful under -race).
func TestParallelAcrossShards(t *testing.T) {
	ctx := context.Background()
	s := mkSharded(t, 8, 64*units.MB)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				key := fmt.Sprintf("w%02d-%02d", g, i)
				if err := blob.Put(ctx, s, key, 128*units.KB, nil); err != nil {
					errs <- err
					return
				}
				if err := blob.Replace(ctx, s, key, 128*units.KB, nil); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	// Snapshots race against the writers; they must stay internally
	// consistent (no panics, sane ranges) even mid-churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			snap := s.Snapshot()
			if len(snap.Shards) != 8 {
				errs <- fmt.Errorf("snapshot saw %d shards", len(snap.Shards))
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.ObjectCount(); got != 160 {
		t.Fatalf("ObjectCount = %d, want 160", got)
	}
}

// TestShardGroupCommitFansOutPerChild pins the parallel commit
// pipelines: with group commit enabled on every child, concurrent
// writers spread over the shards coalesce into batches on each shard
// independently, the aggregated CommitStats sees every commit, and
// Close shuts the whole fleet down in parallel.
func TestShardGroupCommitFansOutPerChild(t *testing.T) {
	ctx := context.Background()
	s := mkSharded(t, 4, 64*units.MB, blob.WithGroupCommit(8, 2*time.Millisecond))
	const writers, rounds = 8, 10
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("w%02d-o%04d", w, i)
				if err := blob.Put(ctx, s, key, 512*units.KB, nil); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	cs := s.CommitStats()
	if cs.Commits != writers*rounds {
		t.Fatalf("fleet saw %d commits, want %d", cs.Commits, writers*rounds)
	}
	if cs.MeanBatch() <= 1 {
		t.Errorf("fleet mean batch %.2f, want > 1 (max %d)", cs.MeanBatch(), cs.MaxBatch)
	}
	// More than one child formed batches: the keyspace spreads over all
	// four shards and each shard batches its own commits.
	batchingChildren := 0
	for i := 0; i < s.NumShards(); i++ {
		if st, ok := blob.CommitStatsOf(s.Shard(i)); ok && st.Commits > 0 {
			batchingChildren++
		}
	}
	if batchingChildren < 2 {
		t.Errorf("only %d children processed commits", batchingChildren)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The fleet stays usable after Close (commits turn synchronous).
	if err := blob.Put(ctx, s, "after-close", 512*units.KB, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOneShardMeasuresAsItsChild pins that the router adds nothing a
// measurement can see: the same seeded bulk load and churn on a bare
// database store and on a 1-shard store over an identically built one
// report the same throughput, virtual time and fragmentation. The
// database backend charges row CPU for every metadata lookup, so any
// extra child call the router made would show up here.
func TestOneShardMeasuresAsItsChild(t *testing.T) {
	const capacity = 128 * units.MB
	dist := workload.Constant{Size: units.RoundUp(capacity/400, 64*units.KB)}
	measure := func(wrap bool) (workload.Result, float64, float64) {
		child, err := core.NewDBStore(vclock.New(),
			blob.WithCapacity(capacity), blob.WithDiskMode(disk.MetadataMode))
		if err != nil {
			t.Fatal(err)
		}
		var store blob.Store = child
		if wrap {
			if store, err = shard.New(child); err != nil {
				t.Fatal(err)
			}
		}
		runner := workload.NewRunner(store, dist, 7)
		if _, err := runner.BulkLoad(0.5); err != nil {
			t.Fatal(err)
		}
		res, err := runner.ChurnToAge(2, workload.ChurnOptions{TolerateNoSpace: true})
		if err != nil {
			t.Fatal(err)
		}
		return res, store.Clock().Seconds(), frag.Analyze(store).MeanFragments()
	}
	bare, bareSecs, bareFrags := measure(false)
	routed, routedSecs, routedFrags := measure(true)
	if bare.MBps != routed.MBps {
		t.Errorf("churn MB/s: bare %v, 1 shard %v", bare.MBps, routed.MBps)
	}
	if bareSecs != routedSecs {
		t.Errorf("virtual seconds: bare %v, 1 shard %v", bareSecs, routedSecs)
	}
	if bareFrags != routedFrags {
		t.Errorf("fragments/object: bare %v, 1 shard %v", bareFrags, routedFrags)
	}
}
