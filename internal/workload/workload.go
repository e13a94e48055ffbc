// Package workload generates the paper's abstract write-intensive
// get/put application (§4.3): bulk load to a target occupancy, then
// rounds of safe-write replacement of uniformly chosen objects with
// interleaved reads, driven by deterministic seeded randomness.
//
// Following §4.3's simplifications: all objects are equally likely to be
// written or read, there is no correlation among objects, and object
// sizes come from simple distributions (constant and uniform; the paper
// found size distribution had no obvious effect on fragmentation).
//
// Since the operation-source redesign, every phase is expressed as a
// Source of typed Ops executed by the shared Executor: the sequential
// Runner, the ConcurrentRunner, and trace replay (package trace) are
// thin arrangements of Sources over one engine, so any workload —
// synthetic or recorded — can drive any blob.Store composition with one
// set of accounting rules.
package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/units"
	"repro/internal/vclock"
)

// Typed errors for workload misconfiguration, in the spirit of
// blob.ErrBadOption: dispatch with errors.Is, never by message text.
var (
	// ErrNoSamples reports a read-throughput measurement asked for zero
	// or negative samples. An empty Result from such a phase would
	// propagate 0/0 artifacts into downstream rate math, so the phase
	// refuses instead of silently returning nothing.
	ErrNoSamples = errors.New("workload: read measurement needs samples > 0")

	// ErrBadDist reports an invalid size- or popularity-distribution
	// parameterization (NewZipf, NewZipfPopularity, ParseDist).
	ErrBadDist = errors.New("workload: invalid distribution")
)

// SizeDist is an object-size distribution.
type SizeDist interface {
	// Name identifies the distribution in reports.
	Name() string
	// Mean returns the mean object size in bytes.
	Mean() int64
	// Sample draws one object size.
	Sample(rng *rand.Rand) int64
}

// Constant is the paper's primary distribution: every object the same
// size.
type Constant struct{ Size int64 }

// Name implements SizeDist.
func (c Constant) Name() string { return "constant " + units.FormatBytes(c.Size) }

// Mean implements SizeDist.
func (c Constant) Mean() int64 { return c.Size }

// Sample implements SizeDist.
func (c Constant) Sample(*rand.Rand) int64 { return c.Size }

// Uniform draws sizes uniformly from [Min, Max] — Figure 5's alternative
// with the same mean as the constant distribution.
type Uniform struct{ Min, Max int64 }

// Name implements SizeDist.
func (u Uniform) Name() string {
	return fmt.Sprintf("uniform %s..%s", units.FormatBytes(u.Min), units.FormatBytes(u.Max))
}

// Mean implements SizeDist.
func (u Uniform) Mean() int64 { return (u.Min + u.Max) / 2 }

// Sample implements SizeDist.
func (u Uniform) Sample(rng *rand.Rand) int64 {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + rng.Int63n(u.Max-u.Min+1)
}

// UniformAround returns a Uniform spanning 0.5x..1.5x of mean, the
// natural counterpart used in Figure 5 ("sizes chosen uniformly at random
// with the same average size").
func UniformAround(mean int64) Uniform {
	return Uniform{Min: mean / 2, Max: mean + mean/2}
}

// Result summarises one workload phase.
type Result struct {
	Ops     int   // operations performed
	Skipped int   // operations skipped (TolerateNoSpace)
	Bytes   int64 // payload bytes moved
	// Seconds is the virtual time the whole phase spanned, including
	// time burned by skipped operations.
	Seconds float64
	// SkippedSeconds is the virtual time consumed by operations that
	// were skipped under TolerateNoSpace (a refused safe write still
	// pays for the allocation attempt and its rollback). The sequential
	// Runner excludes it from MBps so skipped writes cannot dilute the
	// throughput mean. ConcurrentRunner phases leave it zero: with k
	// streams a skipped op's interval overlaps other streams' useful
	// work, so there is no idle time to subtract and MBps is bytes over
	// the whole phase.
	SkippedSeconds float64
	MBps           float64 // payload throughput (see SkippedSeconds)
	EndingAge      float64 // storage age after the phase
	ObjectsAlive   int
}

func (r Result) String() string {
	return fmt.Sprintf("%d ops, %s in %.1fs virtual = %.2f MB/s (age %.2f)",
		r.Ops, units.FormatBytes(r.Bytes), r.Seconds, r.MBps, r.EndingAge)
}

// Runner drives one store through the workload phases, single-stream.
// Each phase is a Source executed by the shared Executor; the Runner
// contributes the persistent per-workload state (one RNG spanning all
// phases, the live-key list, fresh-key numbering).
type Runner struct {
	exec   *Executor
	rng    *rand.Rand
	dist   SizeDist
	keys   []string
	nextID int64
}

// NewRunner creates a deterministic runner over store.
func NewRunner(store blob.Store, dist SizeDist, seed int64) *Runner {
	return &Runner{
		exec: NewExecutor(store),
		rng:  rand.New(rand.NewSource(seed)),
		dist: dist,
	}
}

// WithCollector installs per-op observability on the runner's executor
// (see Executor.WithCollector).
func (r *Runner) WithCollector(c *obs.Collector) *Runner {
	r.exec.WithCollector(c)
	return r
}

// WithContext sets the context the runner's operations carry, for
// cancelling a long workload phase from outside.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	r.exec.WithContext(ctx)
	return r
}

// Executor exposes the engine the runner's phases execute through.
func (r *Runner) Executor() *Executor { return r.exec }

// Tracker exposes the storage-age tracker.
func (r *Runner) Tracker() *core.AgeTracker { return r.exec.Tracker() }

// Repo returns the store under test.
func (r *Runner) Repo() blob.Store { return r.exec.Store() }

// Keys returns the keys of live objects, in creation order.
func (r *Runner) Keys() []string { return r.keys }

// ctx returns the context the executor carries.
func (r *Runner) ctx() context.Context { return r.exec.ctx }

// clockWatch starts a stopwatch on the repository clock.
func (r *Runner) clockWatch() vclock.Stopwatch {
	return vclockWatch(r.Repo())
}

// BulkLoad puts fresh objects until live bytes reach occupancy (0..1) of
// the repository's capacity. The paper's figures start from this state
// ("storage age 0", §5.3) and both systems append sequentially during it.
func (r *Runner) BulkLoad(occupancy float64) (Result, error) {
	return r.BulkLoadBytes(int64(occupancy * float64(r.Repo().CapacityBytes())))
}

// BulkLoadBytes puts fresh objects until live bytes reach targetBytes.
func (r *Runner) BulkLoadBytes(targetBytes int64) (Result, error) {
	budget := NewByteBudget(targetBytes)
	budget.Reserve(r.Repo().LiveBytes())
	src := &LoadSource{
		Dist:   r.dist,
		Budget: budget,
		Key: func() string {
			key := fmt.Sprintf("obj-%08d", r.nextID)
			r.nextID++
			return key
		},
		OnCreate: func(key string) { r.keys = append(r.keys, key) },
	}
	rr, err := r.exec.Run([]Stream{{Source: src, RNG: r.rng}}, RunOptions{})
	res := r.writeResult(rr)
	if err != nil {
		return res, fmt.Errorf("bulk load after %d objects: %w", res.Ops, err)
	}
	r.Tracker().ResetBaseline()
	res.EndingAge = 0
	return res, nil
}

// ChurnOptions controls a churn phase.
type ChurnOptions struct {
	// ReadsPerWrite interleaves this many whole-object reads per safe
	// write (the paper's "interleaved read requests", §4.3).
	ReadsPerWrite int

	// TolerateNoSpace skips safe writes that fail with ErrNoSpaceLeft
	// instead of aborting the phase, counting them in Result.Skipped —
	// the sharded regime, where one nearly-full shard can reject a
	// replace (old and new version coexist until commit) while the
	// fleet as a whole has room. The phase still fails if every key in
	// a row is refused, so a genuinely full store cannot spin forever.
	TolerateNoSpace bool

	// Background, when non-nil, is a maintenance worker (the online
	// compactor) that gets a CatchUp turn after every churn op; see
	// Executor.RunWithBackground.
	Background Background
}

// ChurnToAge safe-writes uniformly chosen objects until storage age
// reaches target. Write throughput over the phase is the Figure 4
// measurement: "the average write throughput between the bulk load and
// storage age two read measurements".
func (r *Runner) ChurnToAge(target float64, opts ChurnOptions) (Result, error) {
	if len(r.keys) == 0 {
		return Result{}, fmt.Errorf("workload: churn before bulk load")
	}
	src := &ChurnSource{
		Keys:          r.keys,
		Dist:          r.dist,
		TargetAge:     target,
		Age:           r.Tracker().Age,
		ReadsPerWrite: opts.ReadsPerWrite,
	}
	rr, err := r.exec.RunWithBackground([]Stream{{Source: src, RNG: r.rng, SkipLimit: 4 * len(r.keys)}},
		RunOptions{TolerateNoSpace: opts.TolerateNoSpace, TrackSkipTime: true}, opts.Background)
	res := r.writeResult(rr)
	if err != nil {
		return res, fmt.Errorf("churn: %w", err)
	}
	return res, nil
}

// ReadOptions controls a read-throughput measurement phase.
type ReadOptions struct {
	// Popularity picks which live object each read targets; nil reads
	// uniformly (the paper's §4.3 simplification). A Zipf popularity
	// concentrates reads on a hot set — the regime where a read cache
	// above the store pays off.
	Popularity Popularity
	// Collector, when non-nil, times every read end-to-end on the
	// virtual clock and traces it through obs-wrapped store layers
	// (obs.Collector.MissLayer splits cache hits from misses).
	Collector *obs.Collector
}

// Popularity picks the index of the object one read targets among n
// live objects. Implementations must return a value in [0, n).
type Popularity interface {
	// Name identifies the popularity mix in reports.
	Name() string
	// Pick draws one object index in [0, n).
	Pick(rng *rand.Rand, n int) int
}

// MeasureReadThroughput reads `samples` uniformly chosen objects and
// returns the payload throughput in MB/s of virtual time — the paper's
// primary performance indicator (§5). samples <= 0 is refused with
// ErrNoSamples.
func (r *Runner) MeasureReadThroughput(samples int) (Result, error) {
	return r.MeasureRead(samples, ReadOptions{})
}

// MeasureRead reads `samples` objects drawn by opts.Popularity
// (uniform when nil) and returns the payload throughput in MB/s of
// virtual time.
func (r *Runner) MeasureRead(samples int, opts ReadOptions) (Result, error) {
	res, err := readPhase(r.exec, r.keys, samples, r.rng, opts)
	if err != nil {
		return res, err
	}
	res.EndingAge = r.Tracker().Age()
	return res, nil
}

// ReadPhase reads `samples` objects drawn from keys by opts.Popularity
// through s with a private seeded RNG. It is the standalone form of
// Runner.MeasureRead for measuring the same aged layout through
// different read paths (e.g. the same store behind several cache
// capacities) with an identical key sequence per seed.
func ReadPhase(ctx context.Context, s blob.Store, keys []string, samples int,
	seed int64, opts ReadOptions) (Result, error) {
	return readPhase(NewExecutor(s).WithContext(ctx).WithCollector(opts.Collector),
		keys, samples, rand.New(rand.NewSource(seed)), opts)
}

// readPhase is the shared read-measurement phase: a ReadSource through
// the executor.
func readPhase(exec *Executor, keys []string, samples int,
	rng *rand.Rand, opts ReadOptions) (Result, error) {
	if samples <= 0 {
		return Result{}, fmt.Errorf("%w: got %d", ErrNoSamples, samples)
	}
	if len(keys) == 0 {
		return Result{}, fmt.Errorf("workload: measure before bulk load")
	}
	src := &ReadSource{Keys: keys, Samples: samples, Popularity: opts.Popularity}
	rr, err := exec.Run([]Stream{{Source: src, RNG: rng}}, RunOptions{})
	total := rr.Total()
	res := Result{
		Ops:          total.Ops(),
		Bytes:        total.BytesRead,
		Seconds:      rr.Seconds,
		MBps:         units.MBps(total.BytesRead, rr.Seconds),
		ObjectsAlive: exec.Store().ObjectCount(),
	}
	return res, err
}

// writeResult converts a single-stream write run into the phase Result
// the classic Runner reported: Bytes and MBps cover committed payload,
// with skipped-op time excluded from the throughput mean.
func (r *Runner) writeResult(rr RunResult) Result {
	total := rr.Total()
	bytes := total.BytesWritten
	return Result{
		Ops:            total.Ops(),
		Skipped:        total.Skipped,
		Bytes:          bytes,
		Seconds:        rr.Seconds,
		SkippedSeconds: total.SkippedSeconds,
		MBps:           units.MBps(bytes, rr.Seconds-total.SkippedSeconds),
		EndingAge:      r.Tracker().Age(),
		ObjectsAlive:   r.Repo().ObjectCount(),
	}
}

// DeleteGroup deletes a contiguous group of n objects starting at a
// random position — the structured deallocation pattern §3.2 describes
// ("pictures shared for an event are often uploaded and later deleted as
// a group"). Used by the photoshare example and extension benches.
func (r *Runner) DeleteGroup(n int) (Result, error) {
	w := r.clockWatch()
	var res Result
	if len(r.keys) == 0 {
		return res, fmt.Errorf("workload: delete before bulk load")
	}
	if n > len(r.keys) {
		n = len(r.keys)
	}
	start := r.rng.Intn(len(r.keys) - n + 1)
	for i := 0; i < n; i++ {
		key := r.keys[start+i]
		info, err := r.Repo().Stat(r.ctx(), key)
		if err != nil {
			return res, err
		}
		if err := r.Tracker().Delete(r.ctx(), key); err != nil {
			return res, err
		}
		res.Ops++
		res.Bytes += info.Size
	}
	r.keys = append(r.keys[:start], r.keys[start+n:]...)
	res.Seconds = w.Seconds()
	res.MBps = units.MBps(res.Bytes, res.Seconds)
	res.EndingAge = r.Tracker().Age()
	res.ObjectsAlive = r.Repo().ObjectCount()
	return res, nil
}
