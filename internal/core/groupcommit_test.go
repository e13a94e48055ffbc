package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/disk"
	"repro/internal/units"
	"repro/internal/vclock"
)

// groupOpts enables batching up to 8 commits with a small fill delay so
// concurrent writers reliably coalesce.
func groupOpts(extra ...blob.Option) []blob.Option {
	return append([]blob.Option{
		blob.WithCapacity(256 * units.MB),
		blob.WithDiskMode(disk.MetadataMode),
		blob.WithGroupCommit(8, 2*time.Millisecond),
	}, extra...)
}

// runConcurrentPuts drives writers concurrent streams of rounds commits
// each through s.
func runConcurrentPuts(t *testing.T, s blob.Store, writers, rounds int, size int64) {
	t.Helper()
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("w%02d-o%04d", w, i)
				if err := blob.Put(ctx, s, key, size, nil); err != nil {
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
}

// TestGroupCommitBatchesUnderConcurrency pins the acceptance criterion:
// under 8 concurrent writers the pipeline coalesces more than one
// commit per group force on both backends, and the committed objects
// are all there.
func TestGroupCommitBatchesUnderConcurrency(t *testing.T) {
	const writers, rounds = 8, 12
	fsStore := mustFileStore(t, groupOpts()...)
	dbStore := mustDBStore(t, groupOpts()...)
	for _, s := range []blob.Store{fsStore, dbStore} {
		t.Run(s.Name(), func(t *testing.T) {
			runConcurrentPuts(t, s, writers, rounds, 1*units.MB)
			if got := s.ObjectCount(); got != writers*rounds {
				t.Fatalf("committed %d objects, want %d", got, writers*rounds)
			}
			cs, ok := blob.CommitStatsOf(s)
			if !ok {
				t.Fatal("store exposes no CommitStats")
			}
			if cs.Commits != writers*rounds {
				t.Fatalf("pipeline saw %d commits, want %d", cs.Commits, writers*rounds)
			}
			if cs.MeanBatch() <= 1 {
				t.Errorf("mean batch %.2f under %d concurrent writers, want > 1 (max seen %d)",
					cs.MeanBatch(), writers, cs.MaxBatch)
			}
			if err := blob.CloseStore(s); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGroupCommitReducesLogForces pins the amortization itself: the same
// concurrent workload issues fewer forced log flushes per committed
// object with batching on than off.
func TestGroupCommitReducesLogForces(t *testing.T) {
	const writers, rounds = 8, 12
	run := func(opts ...blob.Option) int64 {
		s := mustDBStore(t, append([]blob.Option{
			blob.WithCapacity(256 * units.MB),
			blob.WithDiskMode(disk.MetadataMode),
		}, opts...)...)
		defer s.Close()
		runConcurrentPuts(t, s, writers, rounds, 1*units.MB)
		return s.Engine().Stats().LogForces
	}
	unbatched := run()
	batched := run(blob.WithGroupCommit(8, 2*time.Millisecond))
	if batched >= unbatched {
		t.Errorf("log forces with batching = %d, without = %d; group commit saved nothing", batched, unbatched)
	}
	// Without batching every commit forces at least once.
	if unbatched < writers*rounds {
		t.Errorf("unbatched run forced %d times for %d commits", unbatched, writers*rounds)
	}

	// Filesystem counterpart: forced MFT writes per commit shrink too.
	runFS := func(opts ...blob.Option) int64 {
		s := mustFileStore(t, append([]blob.Option{
			blob.WithCapacity(256 * units.MB),
			blob.WithDiskMode(disk.MetadataMode),
		}, opts...)...)
		defer s.Close()
		runConcurrentPuts(t, s, writers, rounds, 1*units.MB)
		return s.Volume().Stats().MetaWrites
	}
	fsUnbatched := runFS()
	fsBatched := runFS(blob.WithGroupCommit(8, 2*time.Millisecond))
	if fsBatched >= fsUnbatched {
		t.Errorf("MFT forces with batching = %d, without = %d", fsBatched, fsUnbatched)
	}
}

// TestGroupCommitErrorFansBackToOwner pins per-writer error fan-out: in
// one batch, a writer that cannot commit (its stream is short) fails
// with its own typed error while the rest of the batch lands.
func TestGroupCommitErrorFansBackToOwner(t *testing.T) {
	ctx := context.Background()
	s := mustFileStore(t, groupOpts()...)
	defer s.Close()

	// A batch of one doomed writer among healthy ones: the doomed key's
	// temp stream crashes mid-commit via the armed crash hook.
	s.ArmCommitCrash("doomed")
	var wg sync.WaitGroup
	errs := make(map[string]error)
	var mu sync.Mutex
	for _, key := range []string{"a", "b", "doomed", "c"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			w, err := s.Create(ctx, key, 1*units.MB)
			if err == nil {
				if err = w.Append(1*units.MB, nil); err == nil {
					err = w.Commit()
				}
			}
			mu.Lock()
			errs[key] = err
			mu.Unlock()
		}(key)
	}
	wg.Wait()
	if !errors.Is(errs["doomed"], blob.ErrCrashed) {
		t.Fatalf("doomed commit = %v, want ErrCrashed", errs["doomed"])
	}
	for _, key := range []string{"a", "b", "c"} {
		if errs[key] != nil {
			t.Fatalf("healthy writer %s failed: %v", key, errs[key])
		}
		if _, err := s.Stat(ctx, key); err != nil {
			t.Fatalf("committed object %s missing: %v", key, err)
		}
	}
	if _, err := s.Stat(ctx, "doomed"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("crashed object visible: %v", err)
	}
}

// TestCrashMidBatchRecovery is the concurrent-stream crash drill: 8
// streams replace their objects through the group-commit pipeline, one
// stream crashes at the safe-write CrashAfterWrite point mid-batch, and
// after Recover the crashed key still serves its OLD bytes while every
// other stream's NEW version survives — the safe-write durability
// contract under batching.
func TestCrashMidBatchRecovery(t *testing.T) {
	ctx := context.Background()
	const streams = 8
	s := mustFileStore(t, groupOpts(blob.WithDiskMode(disk.DataMode))...)
	defer s.Close()

	oldBody := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 64*1024) }
	newBody := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 101)}, 64*1024) }
	keys := make([]string, streams)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%d", i)
		if err := blob.Put(ctx, s, keys[i], 64*units.KB, oldBody(i)); err != nil {
			t.Fatal(err)
		}
	}

	const victim = 3
	s.ArmCommitCrash(keys[victim])
	var wg sync.WaitGroup
	errs := make([]error, streams)
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := s.Replace(ctx, keys[i], 64*units.KB)
			if err == nil {
				if err = w.Append(64*units.KB, newBody(i)); err == nil {
					err = w.Commit()
				}
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	if !errors.Is(errs[victim], blob.ErrCrashed) {
		t.Fatalf("victim commit = %v, want ErrCrashed", errs[victim])
	}

	// Restart: sweep the victim's orphaned temp, release writer claims.
	if swept := s.Recover(); swept != 1 {
		t.Fatalf("Recover swept %d temps, want 1", swept)
	}

	for i := range keys {
		want := newBody(i)
		if i == victim {
			want = oldBody(i)
		}
		_, got, err := blob.Get(ctx, s, keys[i])
		if err != nil {
			t.Fatalf("read %s after recovery: %v", keys[i], err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: wrong version after recovery (stream %d, victim %d)", keys[i], i, victim)
		}
	}
	// The victim's key is writable again after recovery.
	if err := blob.Replace(ctx, s, keys[victim], 64*units.KB, newBody(victim)); err != nil {
		t.Fatalf("replace after recovery: %v", err)
	}
}

// TestConstructorsReturnErrBadOption pins the typed construction
// errors: missing capacity and negative group commit parameters both
// surface blob.ErrBadOption instead of panicking.
func TestConstructorsReturnErrBadOption(t *testing.T) {
	cases := []struct {
		name string
		opts []blob.Option
	}{
		{"MissingCapacity", nil},
		{"NegativeBatch", []blob.Option{blob.WithCapacity(64 * units.MB), blob.WithGroupCommit(-1, 0)}},
		{"NegativeDelay", []blob.Option{blob.WithCapacity(64 * units.MB), blob.WithGroupCommit(4, -time.Second)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewFileStore(vclock.New(), tc.opts...); !errors.Is(err, blob.ErrBadOption) {
				t.Errorf("NewFileStore = %v, want ErrBadOption", err)
			}
			if _, err := NewDBStore(vclock.New(), tc.opts...); !errors.Is(err, blob.ErrBadOption) {
				t.Errorf("NewDBStore = %v, want ErrBadOption", err)
			}
		})
	}
}
