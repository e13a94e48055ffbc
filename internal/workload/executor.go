package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Executor drives k operation streams from any mix of Sources against
// one blob.Store — the single engine behind the Runner and trace
// replay. Each Stream runs on its own goroutine drawing ops from its
// Source with its own RNG, so appends from different streams genuinely
// interleave in allocation order (the §6 regime). One stream runs
// inline on the caller's goroutine, so a k=1 phase is byte-for-byte the
// classic sequential workload and repeats exactly per seed; at k>1 the
// streams charge the shared clock in scheduler order, so timings vary
// from run to run.
//
// The Executor owns the storage-age accounting: all mutations route
// through one shared core.AgeTracker (storage age is a property of the
// volume, not of any writer), and phase timing is read from the store's
// virtual clock.
type Executor struct {
	ctx       context.Context
	tracker   *core.AgeTracker
	collector *obs.Collector
}

// NewExecutor creates an executor over store with a fresh AgeTracker.
func NewExecutor(store blob.Store) *Executor {
	return &Executor{ctx: context.Background(), tracker: core.NewAgeTracker(store)}
}

// WithContext sets the context every stream's operations carry, for
// cancelling a long phase from outside.
func (e *Executor) WithContext(ctx context.Context) *Executor {
	e.ctx = ctx
	return e
}

// WithCollector installs per-op observability: every operation of
// every stream is timed end-to-end on the virtual clock, recorded into
// the collector's registry (op.<kind> histograms, read hit/miss
// classification), and traced with its per-layer spans when the store
// chain is obs-wrapped. A nil collector (the default) records nothing.
func (e *Executor) WithCollector(c *obs.Collector) *Executor {
	e.collector = c
	return e
}

// Tracker exposes the shared storage-age tracker.
func (e *Executor) Tracker() *core.AgeTracker { return e.tracker }

// Store returns the store under test.
func (e *Executor) Store() blob.Store { return e.tracker.Store() }

// Background is a store-maintenance worker that runs between a
// phase's operations — the online compactor is the canonical
// implementation. CatchUp does whatever work the worker is owed at the
// current virtual time and returns; it must not wait.
type Background interface {
	CatchUp(ctx context.Context)
}

// Stream pairs a Source with the RNG that drives it. RNGs are
// caller-owned so they can persist across phases (the classic Runner
// semantics: bulk load and churn continue one random sequence).
type Stream struct {
	// Source produces the stream's operations.
	Source Source
	// RNG drives the source's draws. Each stream needs its own; sharing
	// one RNG across concurrent streams would race.
	RNG *rand.Rand
	// SkipLimit aborts the stream when more than this many CONSECUTIVE
	// writes are skipped under RunOptions.TolerateNoSpace (0 = no
	// limit).
	SkipLimit int
}

// RunOptions controls one Executor.Run.
type RunOptions struct {
	// TolerateNoSpace skips writes failing with blob.ErrNoSpaceLeft
	// instead of aborting the stream, counting them in Counts.Skipped —
	// the sharded regime, where one nearly-full shard can refuse a
	// replace while the fleet has room. Streams still fail once
	// Stream.SkipLimit consecutive writes are refused, so a genuinely
	// full store cannot spin forever.
	TolerateNoSpace bool
	// Background, when non-nil, gets a CatchUp turn after every op of
	// a single-stream run, so the worker's charges interleave with the
	// stream's on the shared clock in the same order on every run. A
	// run with more than one stream refuses it with blob.ErrBadOption:
	// concurrent streams leave no serial point between ops to run it.
	Background Background
}

// Counts is the raw per-stream operation accounting of one run.
type Counts struct {
	Creates, Replaces, Deletes, Reads int
	// Skipped counts writes refused with ErrNoSpaceLeft under
	// TolerateNoSpace.
	Skipped int
	// BytesWritten is payload bytes committed by creates and replaces.
	BytesWritten int64
	// BytesRead is payload bytes returned by reads (a ranged read counts
	// its range length).
	BytesRead int64
	// SkippedSeconds is virtual time consumed by skipped writes. Only a
	// single-stream run measures it: with k > 1 a skipped write's
	// interval overlaps other streams' work.
	SkippedSeconds float64
}

// Ops returns the number of operations that executed successfully.
func (c Counts) Ops() int { return c.Creates + c.Replaces + c.Deletes + c.Reads }

func (c *Counts) add(o Counts) {
	c.Creates += o.Creates
	c.Replaces += o.Replaces
	c.Deletes += o.Deletes
	c.Reads += o.Reads
	c.Skipped += o.Skipped
	c.BytesWritten += o.BytesWritten
	c.BytesRead += o.BytesRead
	c.SkippedSeconds += o.SkippedSeconds
}

// RunResult is one Executor.Run's accounting: per-stream counts plus
// the phase's span on the store's virtual clock.
type RunResult struct {
	// Streams holds one Counts per input stream, in order.
	Streams []Counts
	// Seconds is the virtual time the whole run spanned.
	Seconds float64
}

// Total sums the per-stream counts.
func (r RunResult) Total() Counts {
	var t Counts
	for _, c := range r.Streams {
		t.add(c)
	}
	return t
}

// MaxStreams bounds the stream count one Run accepts. The limit is
// deliberately independent of NumCPU — k is a workload parameter (how
// many writers interleave in the simulation), not a parallelism hint —
// and exists only to catch a garbage k before it allocates a goroutine
// fleet.
const MaxStreams = 4096

// trackerOps is what execOp needs from the storage-age accounting: the
// shared tracker itself (k=1, inline) or one stream's private view.
type trackerOps interface {
	Put(ctx context.Context, key string, size int64, data []byte) error
	Replace(ctx context.Context, key string, size int64, data []byte) error
	Delete(ctx context.Context, key string) error
}

// Run drives every stream to exhaustion (or error) concurrently and
// returns the per-stream accounting. A failing stream does not cancel
// its siblings — they run to their own completion, as k independent
// writers would — and all stream errors are joined. Partial counts are
// returned even on error.
//
// A stream count outside [1, MaxStreams], or a background worker with
// more than one stream, is refused with an error wrapping
// blob.ErrBadOption.
//
// With k > 1 each stream charges the tracker through its own
// core.StreamView (goroutine-local committed-size map, shared atomic
// byte counters), merged back into the tracker when the phase ends —
// including on error, so partial accounting stays visible. One stream
// runs inline against the plain tracker: a k=1 phase is byte-for-byte
// the classic sequential workload.
func (e *Executor) Run(streams []Stream, opts RunOptions) (RunResult, error) {
	if opts.Background != nil && len(streams) != 1 {
		return RunResult{}, fmt.Errorf("workload: background worker with %d streams (want 1): %w",
			len(streams), blob.ErrBadOption)
	}
	if len(streams) < 1 {
		return RunResult{}, fmt.Errorf("workload: %d streams (want at least 1): %w",
			len(streams), blob.ErrBadOption)
	}
	if len(streams) > MaxStreams {
		return RunResult{}, fmt.Errorf("workload: %d streams exceeds MaxStreams %d: %w",
			len(streams), MaxStreams, blob.ErrBadOption)
	}
	res := RunResult{Streams: make([]Counts, len(streams))}
	w := vclock.StartWatch(e.Store().Clock())
	var err error
	if len(streams) == 1 {
		// One stream runs inline: no goroutine between the caller and
		// the classic sequential workload.
		err = e.runStream(0, streams[0], opts, &res.Streams[0], e.tracker, true)
	} else {
		errs := make([]error, len(streams))
		var wg sync.WaitGroup
		for i := range streams {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				view := e.tracker.StreamView()
				defer view.Merge()
				errs[i] = e.runStream(i, streams[i], opts, &res.Streams[i], view, false)
			}(i)
		}
		wg.Wait()
		err = errors.Join(errs...)
	}
	res.Seconds = w.Seconds()
	return res, err
}

// runStream drains one source, executing each op against the store and
// then giving opts.Background (when non-nil) its turn. A solo stream —
// the only one in its run — also times its skipped writes.
func (e *Executor) runStream(id int, st Stream, opts RunOptions, c *Counts, acct trackerOps, solo bool) error {
	src := st.Source
	obs, observes := src.(SourceObserver)
	timeSkips := solo && opts.TolerateNoSpace
	consecutiveSkips := 0
	for opIdx := 0; ; opIdx++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		op, ok := src.Next(st.RNG)
		if !ok {
			if es, hasErr := src.(sourceErr); hasErr {
				if err := es.Err(); err != nil {
					return fmt.Errorf("stream %d (%s): %w", id, src.Name(), err)
				}
			}
			return nil
		}
		var opWatch vclock.Stopwatch
		if timeSkips {
			opWatch = vclock.StartWatch(e.Store().Clock())
		}
		opCtx, tr := e.collector.StartOp(e.ctx, id, op.Kind.String(), op.Key)
		err := e.execOp(opCtx, op, c, acct)
		e.collector.FinishOp(tr, err)
		if observes {
			obs.Observe(op, err)
		}
		if err != nil {
			if !opts.TolerateNoSpace || (op.Kind != OpCreate && op.Kind != OpReplace) ||
				!errors.Is(err, blob.ErrNoSpaceLeft) {
				return fmt.Errorf("stream %d (%s) op %d (%s): %w", id, src.Name(), opIdx, op, err)
			}
			c.Skipped++
			if timeSkips {
				c.SkippedSeconds += opWatch.Seconds()
			}
			consecutiveSkips++
			if st.SkipLimit > 0 && consecutiveSkips > st.SkipLimit {
				return fmt.Errorf("stream %d (%s) op %d: store full on every try: %w",
					id, src.Name(), opIdx, err)
			}
		} else {
			consecutiveSkips = 0
		}
		if opts.Background != nil {
			opts.Background.CatchUp(e.ctx)
		}
	}
}

// execOp executes one op, charging c only on success. ctx carries the
// op's trace (when a collector is installed) so obs-wrapped layers of
// the store chain can attribute their spans to it. Mutations charge
// storage age through acct — the stream's tracker view under
// concurrency, the shared tracker when running inline.
func (e *Executor) execOp(ctx context.Context, op Op, c *Counts, acct trackerOps) error {
	switch op.Kind {
	case OpCreate:
		if err := acct.Put(ctx, op.Key, op.Size, nil); err != nil {
			return err
		}
		c.Creates++
		c.BytesWritten += op.Size
	case OpReplace:
		if err := acct.Replace(ctx, op.Key, op.Size, nil); err != nil {
			return err
		}
		c.Replaces++
		c.BytesWritten += op.Size
	case OpDelete:
		if err := acct.Delete(ctx, op.Key); err != nil {
			return err
		}
		c.Deletes++
	case OpRead:
		if op.Len > 0 {
			r, err := e.Store().Open(ctx, op.Key)
			if err != nil {
				return err
			}
			_, err = r.ReadAt(op.Off, op.Len)
			r.Close()
			if err != nil {
				return err
			}
			c.Reads++
			c.BytesRead += op.Len
		} else {
			n, _, err := blob.Get(ctx, e.Store(), op.Key)
			if err != nil {
				return err
			}
			c.Reads++
			c.BytesRead += n
		}
	default:
		return fmt.Errorf("workload: unknown op kind %v", op.Kind)
	}
	return nil
}
