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
// Every phase is expressed as Sources of typed Ops executed by the
// shared Executor: the Runner (k writer streams) and trace replay
// (package trace) are arrangements of Sources over one engine, so any
// workload — synthetic or recorded — can drive any blob.Store
// composition with one set of accounting rules.
package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/units"
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
	// pays for the allocation attempt and its rollback). It is excluded
	// from MBps so skipped writes cannot dilute the throughput mean.
	// Phases with k > 1 streams leave it zero: a skipped op's interval
	// overlaps other streams' useful work, so there is no idle time to
	// subtract and MBps is bytes over the whole phase.
	SkippedSeconds float64
	MBps           float64 // payload throughput (see SkippedSeconds)
	EndingAge      float64 // storage age after the phase
	ObjectsAlive   int
}

func (r Result) String() string {
	return fmt.Sprintf("%d ops, %s in %.1fs virtual = %.2f MB/s (age %.2f)",
		r.Ops, units.FormatBytes(r.Bytes), r.Seconds, r.MBps, r.EndingAge)
}

// Runner drives one store through the workload phases with k writer
// streams. Each phase is one Source per stream executed by the shared
// Executor; the Runner holds the per-stream state that persists across
// phases (an RNG spanning all phases, the live keys, fresh-key
// numbering).
//
// k > 1 is the §6 regime: "we have not yet characterized the impact of
// interleaved append requests to multiple objects, which are likely to
// increase fragmentation". Appends from different streams interleave in
// allocation order, while storage age stays one property of the volume
// (all streams share the Executor's AgeTracker).
type Runner struct {
	exec    *Executor
	dist    SizeDist
	streams []*stream
}

// stream is one writer's private workload state. Only its owning
// goroutine touches it during a phase.
type stream struct {
	rng  *rand.Rand
	keys []string
	next int64 // number of the stream's next fresh key
}

// NewRunner creates a deterministic single-stream runner over store:
// NewStreamRunner with k=1.
func NewRunner(store blob.Store, dist SizeDist, seed int64) *Runner {
	return NewStreamRunner(store, 1, dist, seed)
}

// NewStreamRunner creates a runner with k writer streams, all drawing
// object sizes from dist. Stream i seeds its RNG with seed+i and names
// its keys obj-%08d with numbers i, i+k, i+2k, ..., so streams never
// collide and k=1 numbers keys 0, 1, 2, .... A k outside
// [1, MaxStreams] makes BulkLoad fail with blob.ErrBadOption.
func NewStreamRunner(store blob.Store, k int, dist SizeDist, seed int64) *Runner {
	r := &Runner{exec: NewExecutor(store), dist: dist}
	for i := range min(k, MaxStreams+1) {
		r.streams = append(r.streams, &stream{rng: rand.New(rand.NewSource(seed + int64(i))), next: int64(i)})
	}
	return r
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

// Tracker exposes the shared storage-age tracker.
func (r *Runner) Tracker() *core.AgeTracker { return r.exec.Tracker() }

// Repo returns the store under test.
func (r *Runner) Repo() blob.Store { return r.exec.Store() }

// Keys returns the keys of live objects stream by stream, each stream's
// in creation order.
func (r *Runner) Keys() []string {
	var out []string
	for _, s := range r.streams {
		out = append(out, s.keys...)
	}
	return out
}

// BulkLoad puts fresh objects until live bytes reach occupancy (0..1) of
// the repository's capacity. The paper's figures start from this state
// ("storage age 0", §5.3); with one stream both systems append
// sequentially during it.
func (r *Runner) BulkLoad(occupancy float64) (Result, error) {
	return r.BulkLoadBytes(int64(occupancy * float64(r.Repo().CapacityBytes())))
}

// BulkLoadBytes puts fresh objects until live bytes reach targetBytes.
// With k > 1 the streams race for one byte budget, so appends
// interleave from the first load. On a sharded store an unlucky shard
// can fill early; the resulting ErrNoSpaceLeft is returned (wrapped)
// for the caller to tolerate, with the other streams' work intact.
func (r *Runner) BulkLoadBytes(targetBytes int64) (Result, error) {
	budget := NewByteBudget(targetBytes)
	budget.Reserve(r.Repo().LiveBytes())
	stride := int64(len(r.streams))
	specs := make([]Stream, len(r.streams))
	for i, s := range r.streams {
		specs[i] = Stream{Source: &LoadSource{
			Dist:   r.dist,
			Budget: budget,
			Key: func() string {
				key := keyName(s.next)
				s.next += stride
				return key
			},
			OnCreate: func(key string) { s.keys = append(s.keys, key) },
		}, RNG: s.rng}
	}
	rr, err := r.exec.Run(specs, RunOptions{})
	r.Tracker().ResetBaseline()
	res := r.result(rr)
	if err != nil {
		return res, fmt.Errorf("bulk load after %d objects: %w", res.Ops, err)
	}
	return res, nil
}

// keyName formats key number n as obj-%08d. It bypasses fmt, whose
// boxing of n would cost an allocation per created object.
func keyName(n int64) string {
	var buf [20]byte
	d := strconv.AppendInt(buf[:0], n, 10)
	if pad := 8 - len(d); pad > 0 {
		return "obj-" + "00000000"[:pad] + string(d)
	}
	return "obj-" + string(d)
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
	// RunOptions.Background.
	Background Background
}

// ChurnToAge safe-writes uniformly chosen objects until storage age
// reaches target, each stream within its own keys. Write throughput over
// the phase is the Figure 4 measurement: "the average write throughput
// between the bulk load and storage age two read measurements".
func (r *Runner) ChurnToAge(target float64, opts ChurnOptions) (Result, error) {
	specs := make([]Stream, len(r.streams))
	loaded := 0
	for i, s := range r.streams {
		loaded += len(s.keys)
		// A stream that got no budget at load time has no keys; its
		// ChurnSource is exhausted at once and it idles.
		specs[i] = Stream{
			Source: &ChurnSource{
				Keys:          s.keys,
				Dist:          r.dist,
				TargetAge:     target,
				Age:           r.Tracker().Age,
				ReadsPerWrite: opts.ReadsPerWrite,
			},
			RNG:       s.rng,
			SkipLimit: 4 * len(s.keys),
		}
	}
	if loaded == 0 {
		return Result{}, fmt.Errorf("workload: churn before bulk load")
	}
	rr, err := r.exec.Run(specs, RunOptions{TolerateNoSpace: opts.TolerateNoSpace, Background: opts.Background})
	res := r.result(rr)
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

// MeasureReadThroughput reads `samples` uniformly chosen live objects
// and returns the payload throughput in MB/s of virtual time — the
// paper's primary performance indicator (§5). The reads draw on the
// first stream's RNG. samples <= 0 is refused with ErrNoSamples.
func (r *Runner) MeasureReadThroughput(samples int) (Result, error) {
	var rng *rand.Rand // with no streams there are no keys, and readPhase refuses
	if len(r.streams) > 0 {
		rng = r.streams[0].rng
	}
	res, err := readPhase(r.exec, r.Keys(), samples, rng, ReadOptions{})
	if err != nil {
		return res, err
	}
	res.EndingAge = r.Tracker().Age()
	return res, nil
}

// ReadPhase reads `samples` objects drawn from keys by opts.Popularity
// (uniform when nil) through s with a private seeded RNG. It is the
// standalone form of Runner.MeasureReadThroughput for measuring the
// same aged layout through different read paths (e.g. the same store
// behind several cache capacities) with an identical key sequence per
// seed.
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

// result converts a write run into the phase Result: Bytes and MBps
// cover committed payload, with skipped-op time (measured only at k=1)
// excluded from the throughput mean.
func (r *Runner) result(rr RunResult) Result {
	total := rr.Total()
	return Result{
		Ops:            total.Ops(),
		Skipped:        total.Skipped,
		Bytes:          total.BytesWritten,
		Seconds:        rr.Seconds,
		SkippedSeconds: total.SkippedSeconds,
		MBps:           units.MBps(total.BytesWritten, rr.Seconds-total.SkippedSeconds),
		EndingAge:      r.Tracker().Age(),
		ObjectsAlive:   r.Repo().ObjectCount(),
	}
}
