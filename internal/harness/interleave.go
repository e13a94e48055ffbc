package harness

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// interleaveLatencyMetrics are the histograms the interleave sweep
// prints: whole-op latencies plus the commit pipeline's queue-wait vs.
// group-force split at the store layer.
var interleaveLatencyMetrics = []string{
	"op.create", "op.replace", "op.delete",
	"store.commit", "store.commit.queuewait", "store.commit.force",
}

// defaultStreamCounts is the k sweep of the "interleave" experiment.
var defaultStreamCounts = []int{1, 4, 16}

// streamCounts returns the configured sweep points (Config.StreamCounts
// or the 1/4/16 default).
func (c Config) streamCounts() []int {
	if len(c.StreamCounts) > 0 {
		return c.StreamCounts
	}
	return defaultStreamCounts
}

// InterleaveSweep measures the §6 prediction end-to-end: "interleaved
// append requests to multiple objects ... are likely to increase
// fragmentation". k concurrent writer streams (one workload.Runner,
// each stream with its own keys) drive the full get/put workload —
// concurrent bulk load, then churn to half the configured age — on
// each backend at FIXED total volume, so appends from different streams
// genuinely interleave in allocation order. Group commit is enabled with
// batches up to k, so the sweep also reports how far the commit pipeline
// amortizes forced flushes as concurrency rises.
//
// The k=1 arm is the single-writer regime of the PR 2 shard sweep (one
// stream, same object size, same churn depth) and anchors the curve to
// the earlier baseline.
func InterleaveSweep(c Config) ([]*stats.Table, error) {
	counts := c.streamCounts()
	dist := c.sizeDist()
	targetAge := c.MaxAge / 2

	frags := stats.NewTable(
		fmt.Sprintf("Concurrent writer streams: fragmentation vs k (%s volume, %s objects, age %.1f)",
			units.FormatBytes(c.VolumeBytes), dist.Name(), targetAge),
		"Writer streams", "Fragments/object")
	tput := stats.NewTable("Concurrent writer streams: churn write throughput vs k",
		"Writer streams", "MB/sec")
	batch := stats.NewTable("Group commit under k writers: commits per forced flush",
		"Writer streams", "Mean batch size")

	var latTables []*stats.Table
	for _, kind := range []string{"database", "filesystem"} {
		name := "Database"
		if kind == "filesystem" {
			name = "Filesystem"
		}
		fragSeries := frags.AddSeries(name)
		tputSeries := tput.AddSeries(name)
		batchSeries := batch.AddSeries(name)
		for _, k := range counts {
			if k < 1 {
				return nil, fmt.Errorf("interleave: stream count %d < 1", k)
			}
			mf, res, cs, p, err := c.runInterleaveArm(kind, k, dist, targetAge)
			if err != nil {
				return nil, err
			}
			fragSeries.Add(float64(k), mf)
			tputSeries.Add(float64(k), res.MBps)
			batchSeries.Add(float64(k), cs.MeanBatch())
			c.reportPhase("interleave", fmt.Sprintf("%s k=%d", kind, k), p)
			if k == counts[len(counts)-1] {
				// Print the deepest-k arm's latency breakdown; every arm's
				// full snapshot is in the JSON report.
				latTables = appendTable(latTables, p.latencyTable(
					fmt.Sprintf("Interleave %s k=%d: per-op virtual-time latency (churn phase)", name, k),
					interleaveLatencyMetrics))
			}
			c.logf("interleave %s k=%d: %.2f frags/obj, %.2f MB/s, batch %.2f (max %d) over %d commits, %d skipped",
				kind, k, mf, res.MBps, cs.MeanBatch(), cs.MaxBatch, cs.Commits, res.Skipped)
		}
	}
	frags.Note("fixed total volume; k goroutine streams interleave appends in allocation order — the §6 interleaved-append regime the single-writer sweeps cannot reach")
	batch.Note("commit pipeline: k concurrent writers coalesce into batches of up to k commits per forced flush (1.0 = every commit forces, as without group commit)")
	for _, t := range latTables {
		t.Note("virtual-time quantiles: an op's latency includes time charged by other streams while it was in flight; store.commit.queuewait vs store.commit.force splits the pipeline's wait from the one group force")
	}
	return append([]*stats.Table{frags, tput, batch}, latTables...), nil
}

// runInterleaveArm measures one (backend, k) arm on a fresh store,
// always shutting the store's commit pipeline down — success or not —
// so no batcher goroutine outlives the arm.
func (c Config) runInterleaveArm(kind string, k int, dist workload.SizeDist, targetAge float64) (
	meanFragments float64, res workload.Result, cs blob.CommitStats, p *probe, err error) {
	clock := vclock.New()
	p = c.newProbe(fmt.Sprintf("interleave %s k=%d", kind, k), clock, "")
	opts := append(c.storeOptions(64*units.KB),
		blob.WithGroupCommit(k, 500*time.Microsecond))
	if p != nil {
		opts = append(opts, blob.WithCommitObserver(obs.NewCommitObserver(p.registry(), "store")))
	}
	var store blob.Store
	switch kind {
	case "filesystem":
		store, err = core.NewFileStore(clock, opts...)
	case "database":
		store, err = core.NewDBStore(clock, opts...)
	}
	if err != nil {
		return 0, res, cs, p, err
	}
	defer func() {
		if cerr := blob.CloseStore(store); err == nil {
			err = cerr
		}
	}()
	runner := workload.NewStreamRunner(p.wrap(store, "store"), k, dist, c.Seed).
		WithCollector(p.collector())
	// Concurrent loaders race the byte budget; near the target one
	// stream can lose the race to a refused allocation, which is the
	// regime itself, not a failure.
	if _, err := runner.BulkLoad(c.Occupancy); err != nil && !errors.Is(err, blob.ErrNoSpaceLeft) {
		return 0, res, cs, p, fmt.Errorf("interleave %s k=%d load: %w", kind, k, err)
	}
	// The latency ledger covers the churn phase only: the bulk-load
	// metrics (and its commit-pipeline timings) are zeroed so quantiles
	// describe the steady interleaved regime.
	p.reset()
	res, err = runner.ChurnToAge(targetAge, workload.ChurnOptions{TolerateNoSpace: true})
	if err != nil {
		return 0, res, cs, p, fmt.Errorf("interleave %s k=%d churn: %w", kind, k, err)
	}
	cs, _ = blob.CommitStatsOf(store)
	return meanFrags(store), res, cs, p, nil
}
