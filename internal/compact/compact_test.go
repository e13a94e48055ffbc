package compact_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blob"
	"repro/internal/cache"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/frag"
	"repro/internal/shard"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// newShatteredFS builds a FileStore holding n objects of size bytes and
// pathologically fragments the volume (the §5.3 fixture).
func newShatteredFS(t *testing.T, n int, size int64) *core.FileStore {
	t.Helper()
	store, err := core.NewFileStore(vclock.New(),
		blob.WithCapacity(256*units.MB), blob.WithDiskMode(disk.MetadataMode))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if err := blob.Put(ctx, store, fmt.Sprintf("obj-%02d", i), size, nil); err != nil {
			t.Fatal(err)
		}
	}
	store.Volume().ShatterFiles(4)
	return store
}

func TestValidateDuty(t *testing.T) {
	for _, d := range []float64{0, 0.1, 0.5, 1} {
		if err := compact.ValidateDuty(d); err != nil {
			t.Errorf("ValidateDuty(%v) = %v, want nil", d, err)
		}
	}
	for _, d := range []float64{-0.1, 1.01, math.NaN(), math.Inf(1)} {
		if err := compact.ValidateDuty(d); !errors.Is(err, blob.ErrBadOption) {
			t.Errorf("ValidateDuty(%v) = %v, want ErrBadOption", d, err)
		}
	}
}

func TestParseDutyList(t *testing.T) {
	tests := []struct {
		spec string
		want []float64
		ok   bool
	}{
		{"0,0.1,0.5", []float64{0, 0.1, 0.5}, true},
		{" 1 ", []float64{1}, true},
		{"0.25", []float64{0.25}, true},
		{"0, 0.5 ,1", []float64{0, 0.5, 1}, true},
		{"", nil, false},
		{"   ", nil, false},
		{"-0.1", nil, false},
		{"1.5", nil, false},
		{"abc", nil, false},
		{"0,,1", nil, false},
		{"0.1;0.5", nil, false},
	}
	for _, tc := range tests {
		got, err := compact.ParseDutyList(tc.spec)
		if !tc.ok {
			if !errors.Is(err, blob.ErrBadOption) {
				t.Errorf("ParseDutyList(%q) err = %v, want ErrBadOption", tc.spec, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDutyList(%q) = %v", tc.spec, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseDutyList(%q) = %v, want %v", tc.spec, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseDutyList(%q)[%d] = %v, want %v", tc.spec, i, got[i], tc.want[i])
			}
		}
	}
}

// noRewrite hides every capability beyond the plain blob.Store methods.
type noRewrite struct{ blob.Store }

func TestNewRejectsUnsupportedAndBadDuty(t *testing.T) {
	store, err := core.NewFileStore(vclock.New(), blob.WithCapacity(64*units.MB))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compact.New(noRewrite{store}, compact.Config{DutyCycle: 0.5}); !errors.Is(err, compact.ErrUnsupported) {
		t.Fatalf("New(no-rewrite store) = %v, want ErrUnsupported", err)
	}
	for _, d := range []float64{-1, 2} {
		if _, err := compact.New(store, compact.Config{DutyCycle: d}); !errors.Is(err, blob.ErrBadOption) {
			t.Fatalf("New(duty %v) = %v, want ErrBadOption", d, err)
		}
	}
}

// TestRunOnceDefragmentsFileStore pins the rewrite stage end to end: a
// shattered volume comes back toward contiguity, the moved bytes are
// counted, and the work charges the shared virtual clock.
func TestRunOnceDefragmentsFileStore(t *testing.T) {
	store := newShatteredFS(t, 12, 2*units.MB)
	before := frag.Analyze(store).MeanFragments()
	if before < 2 {
		t.Fatalf("fixture not fragmented: mean %.2f", before)
	}
	c, err := compact.New(store, compact.Config{DutyCycle: 1, PackThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	clockBefore := store.Clock().Now()
	st := c.RunOnce(context.Background())
	after := frag.Analyze(store).MeanFragments()

	if st.Rewrites == 0 || st.RewriteBytes == 0 {
		t.Fatalf("no rewrites recorded: %v", st)
	}
	if st.BusySeconds <= 0 {
		t.Fatalf("compactor busy time not accounted: %v", st)
	}
	if store.Clock().Now() == clockBefore {
		t.Fatal("rewrites advanced no virtual time (disk cost not charged)")
	}
	if after >= before {
		t.Fatalf("mean fragments %.2f -> %.2f, want a decrease", before, after)
	}
}

// TestRunOncePacksSmallTail pins the pack stage: a tail of small
// objects is coalesced into a pack extent and stays readable.
func TestRunOncePacksSmallTail(t *testing.T) {
	ctx := context.Background()
	store, err := core.NewFileStore(vclock.New(),
		blob.WithCapacity(128*units.MB), blob.WithDiskMode(disk.DataMode))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 100*units.KB)
	for i := range data {
		data[i] = byte(i % 251)
	}
	for i := 0; i < 6; i++ {
		if err := blob.Put(ctx, store, fmt.Sprintf("small-%d", i), int64(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}
	c, err := compact.New(store, compact.Config{DutyCycle: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := c.RunOnce(ctx)
	if st.Packs != 1 || st.PackedObjects != 6 {
		t.Fatalf("pack stage did %d packs / %d objects, want 1 / 6: %v", st.Packs, st.PackedObjects, st)
	}
	if st.PackedBytes != 6*int64(len(data)) {
		t.Fatalf("packed bytes = %d, want %d", st.PackedBytes, 6*len(data))
	}
	if store.Volume().PackCount() != 1 {
		t.Fatalf("volume pack count = %d, want 1", store.Volume().PackCount())
	}
	if _, got, err := blob.Get(ctx, store, "small-3"); err != nil || string(got) != string(data) {
		t.Fatalf("packed object unreadable: %v", err)
	}
	// A second cycle does not thrash: the tail is already packed.
	st = c.RunOnce(ctx)
	if st.Packs != 0 {
		t.Fatalf("repack on second cycle: %v", st)
	}
}

// TestRunOnceCompactsDBStore drives the database backend's rewrite path:
// delete-then-overwrite churn leaves objects spanning scattered holes,
// and compaction re-appends them contiguously through the log.
func TestRunOnceCompactsDBStore(t *testing.T) {
	ctx := context.Background()
	store, err := core.NewDBStore(vclock.New(),
		blob.WithCapacity(256*units.MB), blob.WithDiskMode(disk.MetadataMode))
	if err != nil {
		t.Fatal(err)
	}
	// 16 × 128 KB, delete every other, refill with 256 KB objects that
	// must span two old holes each.
	for i := 0; i < 16; i++ {
		if err := blob.Put(ctx, store, fmt.Sprintf("row-%02d", i), 128*units.KB, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i += 2 {
		if err := store.Delete(ctx, fmt.Sprintf("row-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := blob.Put(ctx, store, fmt.Sprintf("big-%d", i), 256*units.KB, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := frag.Analyze(store).MeanFragments()
	if before <= 1 {
		t.Fatalf("fixture not fragmented: mean %.2f", before)
	}
	c, err := compact.New(store, compact.Config{DutyCycle: 1, PackThreshold: 1, TriggerFragments: 1.01})
	if err != nil {
		t.Fatal(err)
	}
	st := c.RunOnce(ctx)
	after := frag.Analyze(store).MeanFragments()
	if st.Rewrites == 0 {
		t.Fatalf("no rewrites on the db backend: %v", st)
	}
	if after >= before {
		t.Fatalf("mean fragments %.2f -> %.2f, want a decrease", before, after)
	}
	if got := store.Engine().Stats().Compactions; got != st.Rewrites {
		t.Fatalf("engine counted %d compactions, compactor %d", got, st.Rewrites)
	}
}

// TestDutyCycleBoundsBusyTime pins the gate: with foreground reads
// advancing the shared clock and the compactor catching up after each
// one, a compactor at duty d never runs more than d of the elapsed
// virtual time ahead by more than one operation.
func TestDutyCycleBoundsBusyTime(t *testing.T) {
	const duty = 0.1
	store := newShatteredFS(t, 24, units.MB)
	c, err := compact.New(store, compact.Config{DutyCycle: duty, PackThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := vclock.StartWatch(store.Clock())
	reads := &workload.ReadSource{Keys: store.Keys(), Samples: 400}
	if _, err := workload.NewExecutor(store).Run(
		[]workload.Stream{{Source: reads, RNG: rand.New(rand.NewSource(1))}}, workload.RunOptions{Background: c}); err != nil {
		t.Fatal(err)
	}
	elapsed := w.Seconds()
	st := c.Stats()
	if st.Rewrites == 0 {
		t.Fatalf("compactor never ran: %v", st)
	}
	// The gate admits an op when busy <= duty*elapsed, so the overshoot
	// is bounded by a single op's cost; objects are uniform, so twice the
	// mean per-op busy time is a safe single-op bound.
	slack := 2 * st.BusySeconds / float64(st.Rewrites+st.SkippedBusy+1)
	if st.BusySeconds > duty*elapsed+slack {
		t.Fatalf("busy %.4fs exceeds duty %.2f of elapsed %.4fs (+%.4fs slack)",
			st.BusySeconds, duty, elapsed, slack)
	}
}

func TestZeroDutyIsNoOp(t *testing.T) {
	store := newShatteredFS(t, 4, units.MB)
	c, err := compact.New(store, compact.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.CatchUp(context.Background()) // no-op: zero duty cycle
	if st := c.Stats(); st != (compact.Stats{}) {
		t.Fatalf("zero-duty compactor did work: %v", st)
	}
}

// TestFleetPerShard pins the fleet fan-out: one compactor per shard
// child, scans scoped per child, rewrites routed through the top.
func TestFleetPerShard(t *testing.T) {
	ctx := context.Background()
	clock := vclock.New()
	children := make([]blob.Store, 4)
	for i := range children {
		c, err := core.NewFileStore(clock,
			blob.WithCapacity(128*units.MB), blob.WithDiskMode(disk.MetadataMode))
		if err != nil {
			t.Fatal(err)
		}
		children[i] = c
	}
	s, err := shard.New(children...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := blob.Put(ctx, s, fmt.Sprintf("key-%02d", i), units.MB, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, child := range children {
		child.(*core.FileStore).Volume().ShatterFiles(4)
	}
	before := frag.Analyze(s).MeanFragments()

	fleet, err := compact.NewFleet(s, compact.Config{DutyCycle: 1, PackThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Size() != 4 {
		t.Fatalf("fleet size = %d, want 4", fleet.Size())
	}
	st := fleet.RunOnce(ctx)
	if st.Rewrites == 0 || st.Scans != 4 {
		t.Fatalf("fleet pass = %v, want rewrites > 0 across 4 scans", st)
	}
	if after := frag.Analyze(s).MeanFragments(); after >= before {
		t.Fatalf("mean fragments %.2f -> %.2f, want a decrease", before, after)
	}
}

// TestFleetUnwrapsCache pins the layering rule: the fleet finds the
// shard fan-out beneath a cache, but rewrites still execute through the
// cache so its entries observe the relocation.
func TestFleetUnwrapsCache(t *testing.T) {
	ctx := context.Background()
	inner := newShatteredFS(t, 8, units.MB)
	cached, err := cache.New(inner, cache.WithCapacity(32*units.MB))
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := compact.NewFleet(cached, compact.Config{DutyCycle: 1, PackThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Size() != 1 {
		t.Fatalf("fleet size = %d, want 1", fleet.Size())
	}
	if st := fleet.RunOnce(ctx); st.Rewrites == 0 {
		t.Fatalf("fleet over cache did no rewrites: %v", st)
	}
	if _, _, err := blob.Get(ctx, cached, "obj-00"); err != nil {
		t.Fatalf("read through cache after compaction: %v", err)
	}
}

// cancelAfter is a FileStore whose CompactObject cancels a context
// once the first rewrite returns.
type cancelAfter struct {
	*core.FileStore
	cancel context.CancelFunc
}

func (s cancelAfter) CompactObject(ctx context.Context, key string) (int64, error) {
	defer s.cancel()
	return s.FileStore.CompactObject(ctx, key)
}

// TestCycleStopsAtContextError pins cancellation: a cycle stops at the
// first context error instead of trying (and counting as a store
// error) every remaining candidate, and the compactor still works once
// handed a live context.
func TestCycleStopsAtContextError(t *testing.T) {
	store := newShatteredFS(t, 12, 2*units.MB)
	c, err := compact.New(store, compact.Config{DutyCycle: 1, PackThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if st := c.RunOnce(ctx); st.Errors != 0 || st.Rewrites != 0 {
		t.Fatalf("RunOnce with a canceled context: %d rewrites, %d errors; want 0, 0", st.Rewrites, st.Errors)
	}
	c.CatchUp(ctx)
	if st := c.Stats(); st.Errors != 0 || st.Rewrites != 0 {
		t.Fatalf("CatchUp with a canceled context: %d rewrites, %d errors; want 0, 0", st.Rewrites, st.Errors)
	}

	// Cancellation mid-cycle: the rewrite in flight completes, nothing
	// after it starts.
	ctx, cancel = context.WithCancel(context.Background())
	mid, err := compact.New(cancelAfter{store, cancel}, compact.Config{DutyCycle: 1, PackThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := mid.RunOnce(ctx); st.Errors != 0 || st.Rewrites != 1 {
		t.Fatalf("RunOnce canceled after one rewrite: %d rewrites, %d errors; want 1, 0", st.Rewrites, st.Errors)
	}

	if st := c.RunOnce(context.Background()); st.Rewrites == 0 {
		t.Fatalf("RunOnce with a live context did no work: %v", st)
	}
}
