// Package obs is the observability layer of the store stack: metrics
// and per-operation tracing for every experiment the harness runs.
//
// The paper's argument rests on measured degradation over storage age,
// but aggregate MB/s per phase cannot show WHERE virtual time goes —
// cache hit vs. cold fragment walk, commit queue wait vs. group force,
// one slow shard vs. a uniform fleet. This package provides that lens:
//
//   - Registry: lock-cheap counters, gauges, and log-bucketed latency
//     Histograms (p50/p90/p99/p999/max, mergeable across streams). All
//     latencies are recorded in VIRTUAL-clock nanoseconds, so latency
//     distributions inherit the determinism and host-independence of
//     the simulation's storage-age metric.
//   - Store (store.go): a blob.Store wrapper that times every operation
//     against the shared vclock and composes anywhere in the store
//     chain, so one logical op can be attributed at each layer it
//     crosses.
//   - Tracer/Collector (trace.go): a bounded ring-buffer op tracer
//     emitting JSONL and Chrome trace-event files, one track per
//     operation stream with spans per layer, so a single slow p999 op
//     can be inspected end-to-end.
//   - RunReport (report.go): the machine-readable JSON run report the
//     fragbench harness emits alongside its text tables.
//
// Virtual time vs. wall clock: everything here measures the simulated
// clock (vclock.Clock). An op's latency includes virtual time charged
// by OTHER concurrent streams while the op was in flight — exactly the
// queueing view a tail-latency SLO needs. With one stream it is
// reproducible per seed, unlike wall-clock timings; with k > 1 streams
// charge the shared clock in scheduler order, so it varies by run.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TimeUnit declares what a registry's latency histograms measure. The
// tag travels with every Snapshot and PhaseReport so virtual-time sim
// histograms and wall-clock server histograms can never be silently
// mixed in one report: the vclock-timed recorders (Wrap,
// NewCommitObserver, Collector) refuse a wall-unit registry, and the
// report schema surfaces the unit per phase.
type TimeUnit string

const (
	// UnitVirtual marks histograms in vclock.Clock nanoseconds —
	// host-independent, and deterministic per seed for one stream.
	UnitVirtual TimeUnit = "virtual_ns"
	// UnitWall marks histograms in wall-clock nanoseconds — the network
	// service's SLO view, not reproducible across hosts.
	UnitWall TimeUnit = "wall_ns"
)

// WallNow returns the current wall clock as nanoseconds since the Unix
// epoch. It is the single sanctioned wall-time source for the network
// service and its load generator: every wall-clock latency is a
// difference of two WallNow readings recorded into a UnitWall
// registry, so the simulation's vclock purity rule stays auditable.
func WallNow() int64 {
	//fragvet:ignore vclockpurity the network service measures real wall-clock latency; recorded only into UnitWall registries
	return time.Now().UnixNano()
}

// Counter is a monotonically increasing event count. Safe for
// concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time float value (a duty cycle, a hit rate, a
// resident-byte level). Safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry holds one experiment arm's metrics, keyed by flat
// dot-separated names ("disk.readall", "store.commit.queuewait",
// "compact.rewrite_bytes"). Metric handles are created on first use
// and recorded through atomics, so the per-record cost after the first
// lookup is lock-free; the lookup itself takes a read lock only.
//
// A nil *Registry is the disabled state: the obs.Store wrapper and the
// Collector treat it as "record nothing" at near-zero cost, so
// instrumented code paths need no build-time switches.
type Registry struct {
	unit     TimeUnit
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty, enabled registry whose histograms
// record virtual-clock nanoseconds (UnitVirtual).
func NewRegistry() *Registry {
	return newRegistry(UnitVirtual)
}

// NewWallRegistry returns an empty, enabled registry whose histograms
// record wall-clock nanoseconds (UnitWall) — the network service's SLO
// registry. The vclock-timed recorders (Wrap, NewCommitObserver)
// refuse it, so sim latencies can't leak in.
func NewWallRegistry() *Registry {
	return newRegistry(UnitWall)
}

func newRegistry(unit TimeUnit) *Registry {
	return &Registry{
		unit:     unit,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Unit returns the time unit this registry's histograms record. A nil
// registry reports UnitVirtual (the disabled default).
func (r *Registry) Unit() TimeUnit {
	if r == nil {
		return UnitVirtual
	}
	return r.unit
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named latency histogram, creating it on first
// use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = NewHistogram()
	r.hists[name] = h
	return h
}

// Reset zeroes every metric while keeping the handles alive, so
// instrumented stores holding metric pointers keep recording — the
// phase separation a warm-up pass needs (cache.ResetStats one layer
// up).
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Snapshot is a point-in-time copy of a registry's metrics, safe to
// read while recording continues.
type Snapshot struct {
	// Unit is the time unit of every histogram in the snapshot.
	Unit       TimeUnit
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]*HistogramSnapshot
}

// Snapshot copies every metric. Histograms with zero observations are
// included (their quantiles read as zero), so a phase that recorded
// nothing still reports its metric names.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Unit:       r.unit,
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]*HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// HistogramNames returns the registry's histogram names, sorted.
func (r *Registry) HistogramNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.hists))
	for name := range r.hists {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
