package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/units"
)

// TestExecutorMixedSources pins the tentpole claim: one Run can drive a
// heterogeneous mix of Sources — a churn stream and a Zipf read stream
// here — against one store, with per-stream accounting kept apart.
func TestExecutorMixedSources(t *testing.T) {
	store := newFS(128 * units.MB)
	r := NewRunner(store, Constant{Size: 1 * units.MB}, 1)
	if _, err := r.BulkLoad(0.5); err != nil {
		t.Fatal(err)
	}
	exec := r.Executor()

	churn := &ChurnSource{
		Keys:      r.Keys(),
		Dist:      Constant{Size: 1 * units.MB},
		TargetAge: 1,
		Age:       exec.Tracker().Age,
	}
	reads, err := NewZipfReadSource(r.Keys(), 30, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := exec.Run([]Stream{
		{Source: churn, RNG: rand.New(rand.NewSource(2))},
		{Source: reads, RNG: rand.New(rand.NewSource(3))},
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Streams) != 2 {
		t.Fatalf("accounting for %d streams", len(rr.Streams))
	}
	w, rd := rr.Streams[0], rr.Streams[1]
	if w.Replaces == 0 || w.Reads != 0 || w.BytesWritten == 0 {
		t.Fatalf("churn stream counts: %+v", w)
	}
	if rd.Reads != 30 || rd.BytesWritten != 0 || rd.BytesRead != 30*units.MB {
		t.Fatalf("read stream counts: %+v", rd)
	}
	if exec.Tracker().Age() < 1 {
		t.Fatalf("mixed run stopped at age %.2f", exec.Tracker().Age())
	}
	total := rr.Total()
	if total.Ops() != w.Ops()+rd.Ops() {
		t.Fatal("Total does not sum streams")
	}
	if rr.Seconds <= 0 {
		t.Fatal("no virtual time charged")
	}
}

// failingSource always emits a read of a missing key.
type failingSource struct{ emitted int }

func (s *failingSource) Name() string { return "failing" }
func (s *failingSource) Next(*rand.Rand) (Op, bool) {
	if s.emitted > 0 {
		return Op{}, false
	}
	s.emitted++
	return Op{Kind: OpRead, Key: "ghost"}, true
}

// TestExecutorStreamErrorDoesNotCancelSiblings pins the k-writers
// semantics: one stream failing leaves the others running to their own
// completion, and the error arrives wrapped with the stream id.
func TestExecutorStreamErrorDoesNotCancelSiblings(t *testing.T) {
	store := newFS(128 * units.MB)
	exec := NewExecutor(store)
	budget := NewByteBudget(16 * units.MB)
	n := 0
	load := &LoadSource{
		Dist:   Constant{Size: 1 * units.MB},
		Budget: budget,
		Key:    func() string { n++; return fmt.Sprintf("k%04d", n) },
	}
	rr, err := exec.Run([]Stream{
		{Source: load, RNG: rand.New(rand.NewSource(1))},
		{Source: &failingSource{}, RNG: rand.New(rand.NewSource(2))},
	}, RunOptions{})
	if !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if !strings.Contains(err.Error(), "stream 1") {
		t.Fatalf("error not attributed to its stream: %v", err)
	}
	if got := rr.Streams[0].Creates; got != 16 {
		t.Fatalf("healthy stream loaded %d objects, want 16", got)
	}
}

// TestExecutorRangedReads pins ranged-op execution: OpRead with a range
// touches only the range and charges its length.
func TestExecutorRangedReads(t *testing.T) {
	store := newFS(64 * units.MB)
	ctx := context.Background()
	if err := blob.Put(ctx, store, "obj", 4*units.MB, nil); err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor(store)
	ops := []Op{
		{Kind: OpRead, Key: "obj", Off: 1 * units.MB, Len: 2 * units.MB},
		{Kind: OpRead, Key: "obj"},
	}
	i := 0
	src := &sliceSource{ops: ops, i: &i}
	rr, err := exec.Run([]Stream{{Source: src, RNG: rand.New(rand.NewSource(1))}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rr.Streams[0].BytesRead; got != 6*units.MB {
		t.Fatalf("read %d bytes, want ranged 2M + whole 4M", got)
	}

	// An out-of-bounds range surfaces the typed sentinel.
	i = 0
	src2 := &sliceSource{ops: []Op{{Kind: OpRead, Key: "obj", Off: 3 * units.MB, Len: 2 * units.MB}}, i: &i}
	if _, err := exec.Run([]Stream{{Source: src2, RNG: rand.New(rand.NewSource(1))}},
		RunOptions{}); !errors.Is(err, blob.ErrOutOfRange) {
		t.Fatalf("out-of-range replay = %v, want ErrOutOfRange", err)
	}
}

// sliceSource replays a fixed op slice.
type sliceSource struct {
	ops []Op
	i   *int
}

func (s *sliceSource) Name() string { return "slice" }
func (s *sliceSource) Next(*rand.Rand) (Op, bool) {
	if *s.i >= len(s.ops) {
		return Op{}, false
	}
	op := s.ops[*s.i]
	*s.i++
	return op, true
}

// TestExecutorSkipLimit pins the full-store backstop: under
// TolerateNoSpace a stream aborts with ErrNoSpaceLeft once SkipLimit
// consecutive writes are refused.
func TestExecutorSkipLimit(t *testing.T) {
	store := newFS(32 * units.MB)
	exec := NewExecutor(store)
	var ops []Op
	for i := 0; i < 10; i++ {
		// Writes that can never fit: every one is refused.
		ops = append(ops, Op{Kind: OpReplace, Key: "big", Size: 64 * units.MB})
	}
	i := 0
	src := &sliceSource{ops: ops, i: &i}
	rr, err := exec.Run([]Stream{{Source: src, RNG: rand.New(rand.NewSource(1)), SkipLimit: 3}},
		RunOptions{TolerateNoSpace: true})
	if !errors.Is(err, blob.ErrNoSpaceLeft) {
		t.Fatalf("err = %v, want ErrNoSpaceLeft", err)
	}
	if got := rr.Streams[0].Skipped; got != 4 {
		t.Fatalf("skipped %d before aborting, want SkipLimit+1 = 4", got)
	}
}

// countingBackground records each CatchUp call and the store's object
// count at that moment.
type countingBackground struct {
	store blob.Store
	seen  []int
}

func (b *countingBackground) CatchUp(context.Context) {
	b.seen = append(b.seen, b.store.ObjectCount())
}

// TestRunWithBackgroundCatchesUpAfterEveryOp pins the inline hook: at
// k=1 the worker gets exactly one turn after every executed op, a
// skipped write included, and each turn sees that op's effect.
func TestRunWithBackgroundCatchesUpAfterEveryOp(t *testing.T) {
	store := newFS(32 * units.MB)
	ops := []Op{
		{Kind: OpCreate, Key: "a", Size: units.MB},
		{Kind: OpCreate, Key: "b", Size: units.MB},
		{Kind: OpCreate, Key: "huge", Size: 64 * units.MB}, // refused, skipped
		{Kind: OpRead, Key: "a"},
		{Kind: OpDelete, Key: "b"},
	}
	i := 0
	bg := &countingBackground{store: store}
	rr, err := NewExecutor(store).Run(
		[]Stream{{Source: &sliceSource{ops: ops, i: &i}, RNG: rand.New(rand.NewSource(1))}},
		RunOptions{TolerateNoSpace: true, Background: bg})
	if err != nil {
		t.Fatal(err)
	}
	tot := rr.Total()
	if tot.Ops() != 4 || tot.Skipped != 1 {
		t.Fatalf("counts %+v, want 4 ops and 1 skip", tot)
	}
	if want := []int{1, 2, 2, 2, 1}; fmt.Sprint(bg.seen) != fmt.Sprint(want) {
		t.Fatalf("CatchUp saw object counts %v, want %v (one call after each op)", bg.seen, want)
	}
}

// TestRunWithBackgroundRefusesConcurrentStreams pins the k>1 refusal:
// concurrent streams have no serial point between ops for the worker.
func TestRunWithBackgroundRefusesConcurrentStreams(t *testing.T) {
	store := newFS(32 * units.MB)
	bg := &countingBackground{store: store}
	var streams []Stream
	for s := int64(1); s <= 2; s++ {
		i := 0
		src := &sliceSource{ops: []Op{{Kind: OpCreate, Key: fmt.Sprint("k", s), Size: units.MB}}, i: &i}
		streams = append(streams, Stream{Source: src, RNG: rand.New(rand.NewSource(s))})
	}
	if _, err := NewExecutor(store).Run(streams, RunOptions{Background: bg}); !errors.Is(err, blob.ErrBadOption) {
		t.Fatalf("err = %v, want ErrBadOption", err)
	}
	if len(bg.seen) != 0 || store.ObjectCount() != 0 {
		t.Fatalf("refused run still executed: %d CatchUp calls, %d objects", len(bg.seen), store.ObjectCount())
	}
}
