// Package compact implements online compaction — the paper's missing
// chapter. §3.4 warns that defragmentation "imposes read/write
// performance impacts that can outweigh its benefits" but never
// measures the tradeoff; this package makes it measurable. A Compactor
// runs DURING live traffic over any blob.Store-backed engine: it
// watches per-store fragmentation (the same Snapshot statistic the
// shard layer aggregates), rewrites the worst-fragmented objects, and
// coalesces the small-object tail into pack files — all metered by a
// duty cycle on the shared virtual clock, so the rewrite traffic's cost
// is charged against the same throughput numbers it is trying to
// improve.
//
// The compactor has no goroutine of its own. The workload driver calls
// CatchUp between foreground operations, and each call works
// synchronously until the duty gate closes, so a seeded run compacts
// identically every time.
//
// The compactor needs no engine-specific hooks: it drives the
// structural Rewriter and Packer capabilities, which core.FileStore,
// core.DBStore, shard.Store, and cache.Store all implement. Every
// rewrite publishes a fresh object version, so readers pinned to the
// old layout fail with a typed error rather than observing a torn
// rewrite.
package compact

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/blob"
	"repro/internal/frag"
	"repro/internal/units"
	"repro/internal/vclock"
)

// Rewriter is the single-object rewrite capability a store exposes to
// the compactor. The rewrite must publish a fresh version (readers
// pinned to the old layout fail typed) and return the bytes moved —
// 0 when the object was already contiguous or could not be placed.
type Rewriter interface {
	CompactObject(ctx context.Context, key string) (int64, error)
}

// Packer is the small-object coalescing capability: pack the given keys
// into one shared extent, returning the keys actually packed.
type Packer interface {
	PackObjects(ctx context.Context, keys []string) ([]string, error)
}

// ErrUnsupported reports a store without the rewrite capability.
var ErrUnsupported = errors.New("compact: store does not support object rewrite")

// Config tunes one Compactor.
type Config struct {
	// DutyCycle is the fraction of virtual time the compactor may
	// consume, in [0, 1]. The compactor stalls whenever its own charged
	// virtual time exceeds DutyCycle × elapsed virtual time since New,
	// so it only takes its share of the time foreground traffic moves.
	// 0 disables the compactor; 1 removes the gate.
	DutyCycle float64

	// CycleBudget caps the bytes rewritten per scan cycle (default
	// 64 MB). The next cycle re-scans, so a shrinking budget tracks a
	// churning keyspace instead of chasing a stale candidate list.
	CycleBudget int64

	// MinFragments is the least fragment count that makes an object a
	// rewrite candidate (default 2: anything discontiguous).
	MinFragments int

	// TriggerFragments is the mean fragments/object below which the
	// store is considered healthy and the rewrite stage idles (default
	// 1.2) — the "hot fragmentation" detector.
	TriggerFragments float64

	// PackThreshold marks objects of at most this many bytes as
	// small-object-tail pack candidates (default 256 KB). Packing only
	// runs against stores with the Packer capability.
	PackThreshold int64

	// PackBatch is the most members per pack attempt (default 64).
	PackBatch int
}

func (cfg Config) withDefaults() Config {
	if cfg.CycleBudget == 0 {
		cfg.CycleBudget = 64 * units.MB
	}
	if cfg.MinFragments == 0 {
		cfg.MinFragments = 2
	}
	if cfg.TriggerFragments == 0 {
		cfg.TriggerFragments = 1.2
	}
	if cfg.PackThreshold == 0 {
		cfg.PackThreshold = 256 * units.KB
	}
	if cfg.PackBatch == 0 {
		cfg.PackBatch = 64
	}
	return cfg
}

// Stats counts one compactor's work. All rewrite and pack disk traffic
// is charged on the store's shared virtual clock; BusySeconds is the
// compactor's slice of it — the numerator of the duty-cycle gate.
type Stats struct {
	// Scans counts candidate-selection passes.
	Scans int64
	// Rewrites counts objects rewritten; RewriteBytes their bytes.
	Rewrites     int64
	RewriteBytes int64
	// Packs counts pack extents built; PackedObjects and PackedBytes
	// the members coalesced into them.
	Packs         int64
	PackedObjects int64
	PackedBytes   int64
	// SkippedBusy counts rewrites refused because a writer held the key.
	SkippedBusy int64
	// Errors counts rewrite or pack failures other than busy/not-found.
	Errors int64
	// BusySeconds is virtual time consumed by the compactor's own ops.
	BusySeconds float64
}

func (s *Stats) add(o Stats) {
	s.Scans += o.Scans
	s.Rewrites += o.Rewrites
	s.RewriteBytes += o.RewriteBytes
	s.Packs += o.Packs
	s.PackedObjects += o.PackedObjects
	s.PackedBytes += o.PackedBytes
	s.SkippedBusy += o.SkippedBusy
	s.Errors += o.Errors
	s.BusySeconds += o.BusySeconds
}

func (s Stats) String() string {
	return fmt.Sprintf("%d scans, %d rewrites (%s), %d packs (%d objects, %s), %.2fs busy",
		s.Scans, s.Rewrites, units.FormatBytes(s.RewriteBytes),
		s.Packs, s.PackedObjects, units.FormatBytes(s.PackedBytes), s.BusySeconds)
}

// Compactor is one online compaction worker. Its duty-cycle account
// opens when it is built: CatchUp may spend DutyCycle of the virtual
// time elapsed since New. A zero duty cycle makes CatchUp a no-op, so a
// disabled compactor can flow through the same harness code path as an
// enabled one. Compactor implements workload.Background structurally.
type Compactor struct {
	exec  Rewriter
	pack  Packer      // nil when the store cannot pack
	scan  frag.Source // candidate-selection scope (a shard child in a Fleet)
	clock *vclock.Clock
	cfg   Config

	mu        sync.Mutex
	stats     Stats
	busyNs    int64
	startNs   int64
	packTried map[string]bool
}

// New builds a compactor over store, scanning and rewriting the whole
// store. It fails with ErrUnsupported when the store lacks the rewrite
// capability, and with an error wrapping blob.ErrBadOption for a duty
// cycle outside [0, 1].
func New(store blob.Store, cfg Config) (*Compactor, error) {
	return newScoped(store, store, cfg)
}

// newScoped builds a compactor that selects candidates from scan but
// executes rewrites through store — the shape a shard Fleet uses so
// per-child scans stay cheap while rewrites flow through the top of the
// store chain (cache invalidation, shard routing).
func newScoped(store blob.Store, scan frag.Source, cfg Config) (*Compactor, error) {
	rw, ok := store.(Rewriter)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnsupported, store.Name())
	}
	if err := ValidateDuty(cfg.DutyCycle); err != nil {
		return nil, err
	}
	c := &Compactor{
		exec:      rw,
		scan:      scan,
		clock:     store.Clock(),
		cfg:       cfg.withDefaults(),
		startNs:   store.Clock().Now(),
		packTried: make(map[string]bool),
	}
	if pk, ok := store.(Packer); ok {
		c.pack = pk
	}
	return c, nil
}

// Stats returns a snapshot of the compactor's counters.
func (c *Compactor) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// RunOnce performs one full scan-and-rewrite cycle synchronously, with
// the duty gate held open — the offline entry point benchmarks and
// recovery drills use. It returns the work done by this cycle alone.
func (c *Compactor) RunOnce(ctx context.Context) Stats {
	before := c.Stats()
	c.cycle(ctx, func() bool { return true })
	after := c.Stats()
	after.Scans -= before.Scans
	after.Rewrites -= before.Rewrites
	after.RewriteBytes -= before.RewriteBytes
	after.Packs -= before.Packs
	after.PackedObjects -= before.PackedObjects
	after.PackedBytes -= before.PackedBytes
	after.SkippedBusy -= before.SkippedBusy
	after.Errors -= before.Errors
	after.BusySeconds -= before.BusySeconds
	return after
}

// CatchUp performs duty-gated work synchronously in the idle window
// between two foreground operations and returns as soon as the gate
// closes, no work remains, or ctx is done. It never waits, so a
// simulation driving virtual time from a single goroutine gives the
// compactor its duty-cycle share deterministically: each call does at
// most enough work to bring busy time up to DutyCycle × elapsed virtual
// time since New, overshooting by at most one operation. A zero duty
// cycle is a no-op.
func (c *Compactor) CatchUp(ctx context.Context) {
	if c.cfg.DutyCycle <= 0 {
		return
	}
	for c.gateOpen() {
		if !c.cycle(ctx, c.gateOpen) {
			return
		}
	}
}

// gateOpen reports whether the compactor's charged virtual time fits
// under DutyCycle × elapsed virtual time since New — the idle-window
// detector.
func (c *Compactor) gateOpen() bool {
	if c.cfg.DutyCycle >= 1 {
		return true
	}
	c.mu.Lock()
	busy, start := c.busyNs, c.startNs
	c.mu.Unlock()
	return float64(busy) <= c.cfg.DutyCycle*float64(c.clock.Now()-start)
}

// charge accounts one operation's virtual time as compactor busy time.
//
//fragvet:ignore vclockpurity duty-cycle bookkeeping only; the store already advanced the clock during the rewrite being charged
func (c *Compactor) charge(w vclock.Stopwatch) {
	ns := w.Nanoseconds()
	c.mu.Lock()
	c.busyNs += ns
	c.stats.BusySeconds += float64(ns) / 1e9
	c.mu.Unlock()
}

// cycle runs one scan plus the work it uncovers: a pack attempt over
// the small-object tail, then worst-first rewrites up to CycleBudget.
// gate is consulted before every operation — the duty gate for
// CatchUp, a constant true for RunOnce; a false return abandons the
// cycle, as does a done ctx. A failure caused by ctx ending is the
// caller's cancellation, not a store error, so it is not counted. It
// reports whether any object was moved.
func (c *Compactor) cycle(ctx context.Context, gate func() bool) bool {
	admit := func() bool { return ctx.Err() == nil && gate() }
	rep := frag.Analyze(c.scan)
	c.mu.Lock()
	c.stats.Scans++
	c.mu.Unlock()

	worked := false

	// Pack stage: coalesce the small-object tail. Keys already tried
	// (packed or refused) are skipped until they churn back as fresh
	// versions — the store itself filters repacks.
	if c.pack != nil {
		var smalls []string
		for _, o := range rep.PerObject {
			if o.Bytes > 0 && o.Bytes <= c.cfg.PackThreshold && !c.packTried[o.Key] {
				smalls = append(smalls, o.Key)
				if len(smalls) >= c.cfg.PackBatch {
					break
				}
			}
		}
		if len(smalls) >= 2 {
			if !admit() {
				return worked
			}
			w := vclock.StartWatch(c.clock)
			packed, err := c.pack.PackObjects(ctx, smalls)
			c.charge(w)
			c.mu.Lock()
			for _, k := range smalls {
				c.packTried[k] = true
			}
			switch {
			case err == nil && len(packed) > 0:
				c.stats.Packs++
				c.stats.PackedObjects += int64(len(packed))
				for _, k := range packed {
					for _, o := range rep.PerObject {
						if o.Key == k {
							c.stats.PackedBytes += o.Bytes
							break
						}
					}
				}
				worked = true
			case err != nil && ctx.Err() == nil:
				c.stats.Errors++
			}
			c.mu.Unlock()
		}
	}

	// Rewrite stage: only when fragmentation is hot, worst-first, under
	// the per-cycle byte budget.
	if rep.MeanFragments() < c.cfg.TriggerFragments {
		return worked
	}
	cands := make([]frag.ObjectReport, 0, len(rep.PerObject))
	for _, o := range rep.PerObject {
		if o.Fragments >= c.cfg.MinFragments {
			cands = append(cands, o)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Fragments != cands[j].Fragments {
			return cands[i].Fragments > cands[j].Fragments
		}
		return cands[i].Key < cands[j].Key
	})
	var movedBytes int64
	for _, o := range cands {
		if movedBytes >= c.cfg.CycleBudget {
			break
		}
		if !admit() {
			return worked
		}
		w := vclock.StartWatch(c.clock)
		n, err := c.exec.CompactObject(ctx, o.Key)
		c.charge(w)
		c.mu.Lock()
		switch {
		case err == nil && n > 0:
			c.stats.Rewrites++
			c.stats.RewriteBytes += n
			movedBytes += n
			worked = true
		case errors.Is(err, blob.ErrBusy):
			c.stats.SkippedBusy++
		case errors.Is(err, blob.ErrNotFound):
			// Churned away between scan and rewrite; not an error.
		case err != nil && ctx.Err() == nil:
			c.stats.Errors++
		}
		c.mu.Unlock()
	}
	return worked
}

// ValidateDuty checks a duty-cycle value, failing with an error
// wrapping blob.ErrBadOption outside [0, 1].
func ValidateDuty(d float64) error {
	if !(d >= 0 && d <= 1) { // negated to also catch NaN
		return fmt.Errorf("%w: duty cycle %v outside [0,1]", blob.ErrBadOption, d)
	}
	return nil
}

// ParseDutyList parses a comma-separated duty-cycle sweep spec like
// "0,0.1,0.5" (the fragbench -duty flag). Every value must lie in
// [0, 1]; malformed specs fail with an error wrapping blob.ErrBadOption.
func ParseDutyList(spec string) ([]float64, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("%w: empty duty-cycle list", blob.ErrBadOption)
	}
	parts := strings.Split(spec, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad duty cycle %q", blob.ErrBadOption, strings.TrimSpace(p))
		}
		if err := ValidateDuty(v); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
