package workload

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/units"
	"repro/internal/vclock"
)

// TestConcurrentRunnerBulkLoadAndChurn drives a 4-stream Runner
// through a group-committing filesystem store and checks the phase
// accounting and keyspace separation.
func TestConcurrentRunnerBulkLoadAndChurn(t *testing.T) {
	const k = 4
	store, err := core.NewFileStore(vclock.New(),
		blob.WithCapacity(256*units.MB), blob.WithDiskMode(disk.MetadataMode),
		blob.WithGroupCommit(k, 100*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r := NewStreamRunner(store, k, Constant{Size: 1 * units.MB}, 1)

	load, err := r.BulkLoad(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if load.Ops == 0 || load.Bytes == 0 {
		t.Fatalf("empty bulk load: %+v", load)
	}
	if got := int64(float64(store.CapacityBytes()) * 0.5); store.LiveBytes() > got {
		t.Fatalf("overshot load target: live=%d target=%d", store.LiveBytes(), got)
	}
	if r.Tracker().Age() != 0 {
		t.Fatalf("age after load = %g", r.Tracker().Age())
	}
	// Stream i numbers its keys i, i+k, i+2k, ...: each key's number
	// mod k names the stream that wrote it, and Keys lists the streams
	// in order, so residues never go back. Every stream gets keys.
	residues := map[int64]bool{}
	last := int64(-1)
	for _, key := range r.Keys() {
		var n int64
		if _, err := fmt.Sscanf(key, "obj-%08d", &n); err != nil {
			t.Fatalf("unexpected key %q: %v", key, err)
		}
		stream := n % k
		if stream < last {
			t.Fatalf("key %q of stream %d listed after stream %d", key, stream, last)
		}
		last = stream
		residues[stream] = true
	}
	if len(residues) != k {
		t.Fatalf("streams seen: %v, want all %d", residues, k)
	}

	churn, err := r.ChurnToAge(1, ChurnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if churn.EndingAge < 1 {
		t.Fatalf("churn stopped at age %g", churn.EndingAge)
	}
	if churn.Ops == 0 || churn.MBps <= 0 {
		t.Fatalf("churn result: %+v", churn)
	}
}

// TestConcurrentRunnerContextCancel pins that a cancelled context stops
// every stream with a typed error.
func TestConcurrentRunnerContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewStreamRunner(newFS(64*units.MB), 2, Constant{Size: 1 * units.MB}, 1).WithContext(ctx)
	if _, err := r.BulkLoad(0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("BulkLoad under cancelled ctx = %v", err)
	}
}

// noSpaceEveryOther wraps a store and refuses every other Replace with
// ErrNoSpaceLeft after burning simulated time — a nearly-full shard in
// miniature, for pinning the skip accounting.
type noSpaceEveryOther struct {
	blob.Store
	n int
}

func (s *noSpaceEveryOther) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	s.n++
	if s.n%2 == 0 {
		// A refused safe write still pays for the failed allocation
		// attempt before rolling back.
		s.Clock().AdvanceSeconds(1)
		return nil, fmt.Errorf("%w: shard full", blob.ErrNoSpaceLeft)
	}
	return s.Store.Replace(ctx, key, size)
}

// TestChurnSkippedTimeExcludedFromThroughput pins the TolerateNoSpace
// accounting fix: virtual time burned by skipped writes lands in
// Result.SkippedSeconds and is excluded from the MBps mean instead of
// diluting it.
func TestChurnSkippedTimeExcludedFromThroughput(t *testing.T) {
	inner := newFS(128 * units.MB)
	s := &noSpaceEveryOther{Store: inner}
	r := NewRunner(s, Constant{Size: 1 * units.MB}, 3)
	if _, err := r.BulkLoad(0.25); err != nil {
		t.Fatal(err)
	}
	res, err := r.ChurnToAge(1, ChurnOptions{TolerateNoSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Fatal("decorator produced no skips")
	}
	// Each skip burned exactly 1 virtual second.
	if want := float64(res.Skipped); res.SkippedSeconds < want {
		t.Fatalf("SkippedSeconds = %g, want >= %g", res.SkippedSeconds, want)
	}
	if res.SkippedSeconds >= res.Seconds {
		t.Fatalf("skipped time %g not inside phase time %g", res.SkippedSeconds, res.Seconds)
	}
	diluted := units.MBps(res.Bytes, res.Seconds)
	want := units.MBps(res.Bytes, res.Seconds-res.SkippedSeconds)
	if res.MBps != want || res.MBps <= diluted {
		t.Fatalf("MBps = %g, want %g (diluted mean would be %g)", res.MBps, want, diluted)
	}
}

// TestStreamRunnerRefusesBadK pins that a stream count outside
// [1, MaxStreams] fails the first phase with a typed error instead of
// panicking or allocating a goroutine fleet.
func TestStreamRunnerRefusesBadK(t *testing.T) {
	for _, k := range []int{0, -1, MaxStreams + 1} {
		r := NewStreamRunner(newFS(64*units.MB), k, Constant{Size: units.MB}, 1)
		if _, err := r.MeasureReadThroughput(10); err == nil {
			t.Fatalf("k=%d: read phase before load succeeded", k)
		}
		if _, err := r.BulkLoad(0.5); !errors.Is(err, blob.ErrBadOption) {
			t.Fatalf("k=%d: BulkLoad err = %v, want ErrBadOption", k, err)
		}
	}
}
