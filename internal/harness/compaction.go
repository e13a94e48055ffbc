package harness

import (
	"fmt"

	"repro/internal/blob"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// defaultDutyCycles is the sweep of the "compact" experiment: off, a
// light background trickle, and an aggressive half-time compactor.
var defaultDutyCycles = []float64{0, 0.1, 0.5}

// dutyCycles returns the configured sweep points (Config.DutyCycles or
// the 0/0.1/0.5 default).
func (c Config) dutyCycles() []float64 {
	if len(c.DutyCycles) > 0 {
		return c.DutyCycles
	}
	return defaultDutyCycles
}

// CompactionSweep answers the question §3.4 raises but never measures:
// does online defragmentation pay for itself? Each backend is aged to
// MaxAge/2 so fragmentation is established, then churned to MaxAge with
// an online compactor active at each duty cycle (0 = off). The
// compactor runs inline between churn ops: after every op it catches
// up, duty gated, to its share of the virtual time elapsed since it was
// built. Rewrites charge full read+write disk cost on the shared
// virtual clock, and the measured span covers churn and compaction
// alike, so the MB/s column already contains the compaction tax that
// the fragments/object column shows the benefit of.
func CompactionSweep(c Config) ([]*stats.Table, error) {
	duties := c.dutyCycles()
	objSize := units.RoundUp(c.VolumeBytes/400, 64*units.KB)
	dist := workload.Constant{Size: objSize}
	preAge := c.MaxAge / 2
	endAge := c.MaxAge

	frags := stats.NewTable(
		fmt.Sprintf("Online compaction: fragments/object at age %.1f vs duty cycle (%s objects)",
			endAge, units.FormatBytes(objSize)),
		"Duty cycle", "Fragments/object")
	tput := stats.NewTable("Online compaction: churn throughput vs duty cycle (rewrite tax included)",
		"Duty cycle", "MB/sec")

	var latTables []*stats.Table
	for _, kind := range []string{"database", "filesystem"} {
		name := "Database"
		if kind == "filesystem" {
			name = "Filesystem"
		}
		fragSeries := frags.AddSeries(name)
		tputSeries := tput.AddSeries(name)

		for _, duty := range duties {
			// Each arm rebuilds the same seeded layout, so the only
			// difference between duty points is the compactor.
			clock := vclock.New()
			p := c.newProbe(fmt.Sprintf("compact %s duty=%g", kind, duty), clock, "")
			var store blob.Store
			var err error
			switch kind {
			case "database":
				store, err = core.NewDBStore(clock, c.storeOptions(64*units.KB)...)
			case "filesystem":
				store, err = core.NewFileStore(clock, c.storeOptions(64*units.KB)...)
			}
			if err != nil {
				return nil, err
			}
			// The obs layer wraps the whole chain, so compactor rewrites
			// (which execute through the top) are timed as store.compact
			// alongside the foreground ops they run between.
			top := p.wrap(store, "store")
			runner := workload.NewRunner(top, dist, c.Seed)
			if _, err := runner.BulkLoad(c.Occupancy); err != nil {
				return nil, fmt.Errorf("compact %s load: %w", kind, err)
			}
			if _, err := runner.ChurnToAge(preAge, workload.ChurnOptions{}); err != nil {
				return nil, fmt.Errorf("compact %s pre-churn: %w", kind, err)
			}
			before := meanFrags(store)

			var fleet *compact.Fleet
			var bg workload.Background // stays a nil interface when off
			if duty > 0 {
				fleet, err = compact.NewFleet(top, compact.Config{DutyCycle: duty})
				if err != nil {
					return nil, fmt.Errorf("compact %s duty %g: %w", kind, duty, err)
				}
				bg = fleet
			}
			// The latency ledger covers the measured churn only; the
			// collector attaches after setup so op quantiles describe the
			// compacted phase.
			p.reset()
			runner.WithCollector(p.collector())
			w := vclock.StartWatch(store.Clock())
			res, err := runner.ChurnToAge(endAge, workload.ChurnOptions{Background: bg})
			if err != nil {
				return nil, fmt.Errorf("compact %s churn to %.2f: %w", kind, endAge, err)
			}
			mbps := units.MBps(res.Bytes, w.Seconds())
			f := meanFrags(store)
			fragSeries.Add(duty, f)
			tputSeries.Add(duty, mbps)
			if fleet != nil {
				fleet.PublishMetrics(p.registry(), "compact")
				fleet.PublishShardMetrics(p.registry(), "compact")
				st := fleet.Stats()
				frags.Note("%s duty %.2f: %d rewrites (%s), %.1f virtual s compactor-busy; frags %.2f → %.2f",
					name, duty, st.Rewrites, units.FormatBytes(st.RewriteBytes), st.BusySeconds, before, f)
				c.logf("compact: %s duty %.2f: %v (frags %.2f → %.2f, churn %.2f MB/s)",
					kind, duty, st, before, f, mbps)
			} else {
				c.logf("compact: %s compactor off: frags %.2f → %.2f, churn %.2f MB/s",
					kind, before, f, mbps)
			}
			c.reportPhase("compact", fmt.Sprintf("%s duty=%g", kind, duty), p)
			if duty == duties[len(duties)-1] {
				latTables = appendTable(latTables, p.latencyTable(
					fmt.Sprintf("Compaction %s duty=%g: per-op virtual-time latency (churn phase)", name, duty),
					compactionLatencyMetrics))
			}
			blob.CloseStore(store)
		}
	}
	tput.Note("Duty cycle bounds the compactor's share of virtual time; its rewrites charge full read+write cost on the shared clock.")
	for _, t := range latTables {
		t.Note("store.compact is one compactor rewrite (full read+write through the chain); the compactor runs between foreground ops, so its cost shows only in store.compact and in the MB/s column, not in foreground op quantiles")
	}
	return append([]*stats.Table{frags, tput}, latTables...), nil
}

// compactionLatencyMetrics are the histograms the compact sweep
// prints: foreground op latencies during the compacted churn plus the
// per-rewrite cost of the compactor itself.
var compactionLatencyMetrics = []string{
	"op.create", "op.replace", "op.delete", "op.read", "store.compact",
}
