package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/blob"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/frag"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// simSpec sizes the sim-age workload.
type simSpec struct {
	name             string
	volumeBytes      int64
	occupancy        float64
	minSize, maxSize int64
	ageTo            float64
	reads            int
	// repSeconds is the nominal wall time of one repetition's load,
	// churn and read phases; --seconds / repSeconds repetitions run.
	repSeconds float64
	setups     int // store builds timed for setup_s
}

func simAge(mini bool) simSpec {
	s := simSpec{name: "sim-age", volumeBytes: 40 * units.GB, occupancy: 0.5,
		minSize: 256 * units.KB, maxSize: 4 * units.MB, ageTo: 8, reads: 500,
		repSeconds: 8, setups: 5}
	if mini {
		s.volumeBytes, s.ageTo, s.reads, s.repSeconds, s.setups = 1*units.GB, 2, 50, 1, 1
	}
	return s
}

// simOutputs are one arm's simulated results: identical for one seed.
type simOutputs struct {
	objects     int
	liveBytes   int64
	frags       float64
	readBytes   int64
	readSeconds float64 // virtual
	virtSeconds float64 // virtual time of load, churn and read
}

// compaction is the fs arm's compaction result; all but wall repeat
// exactly for one seed.
type compaction struct {
	cycles       int
	rewriteBytes int64
	fragsAfter   float64
	wall         float64
}

// armRun is one arm's record: simulated outputs plus wall measurements.
type armRun struct {
	out           simOutputs
	ops           int64 // executor ops over load, churn and read
	writes        int64
	wall          float64 // wall seconds of load, churn and read
	reads, writeL []int64 // per-op wall latency, ns
	compact       compaction
	st            blob.Store
	// fs arm only: drive reads and seeks of the read phase, and drive
	// bytes written by load and churn against their payload bytes.
	diskReads, diskSeeks         int64
	driveWritten, payloadWritten int64
}

// simStore times each op the Runner runs (Open to reader Close, Create
// or Replace to Commit) and keeps its own ledger of committed sizes. The
// Runner drives one stream inline, so no locking is needed.
type simStore struct {
	blob.Store
	reads, writes []int64
	live          map[string]int64
}

func (s *simStore) Open(ctx context.Context, key string) (blob.Reader, error) {
	start := time.Now()
	r, err := s.Store.Open(ctx, key)
	if err != nil {
		return nil, err
	}
	return &simReader{Reader: r, s: s, start: start}, nil
}

func (s *simStore) Create(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return s.write(ctx, key, size, s.Store.Create)
}

func (s *simStore) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return s.write(ctx, key, size, s.Store.Replace)
}

func (s *simStore) write(ctx context.Context, key string, size int64,
	open func(context.Context, string, int64) (blob.Writer, error)) (blob.Writer, error) {
	start := time.Now()
	w, err := open(ctx, key, size)
	if err != nil {
		return nil, err
	}
	return &simWriter{Writer: w, s: s, key: key, size: size, start: start}, nil
}

type simReader struct {
	blob.Reader
	s     *simStore
	start time.Time
}

func (r *simReader) Close() error {
	err := r.Reader.Close()
	r.s.reads = append(r.s.reads, int64(time.Since(r.start)))
	return err
}

type simWriter struct {
	blob.Writer
	s     *simStore
	key   string
	size  int64
	start time.Time
}

func (w *simWriter) Commit() error {
	if err := w.Writer.Commit(); err != nil {
		return err
	}
	w.s.writes = append(w.s.writes, int64(time.Since(w.start)))
	w.s.live[w.key] = w.size
	return nil
}

// newSimStore builds one metadata-mode core store of the spec's size.
func newSimStore(spec simSpec, db bool) (blob.Store, error) {
	opts := []blob.Option{blob.WithCapacity(spec.volumeBytes), blob.WithDiskMode(disk.MetadataMode)}
	if db {
		return core.NewDBStore(vclock.New(), opts...)
	}
	return core.NewFileStore(vclock.New(), opts...)
}

// runArm loads, ages and reads one store through the Runner, checking
// the store's accounting against the ledger after load and after churn,
// then (fs arm) compacts until a cycle rewrites nothing.
func runArm(spec simSpec, db bool, seed int64, t *Tracer, o *outcome, compactFS bool) (*armRun, error) {
	st, err := newSimStore(spec, db)
	if err != nil {
		return nil, err
	}
	arm := &armRun{st: st}
	var below blob.Store = st
	if t != nil {
		below = &tracedStore{Store: st, t: t, layer: "core"}
	}
	ss := &simStore{Store: below, live: make(map[string]int64)}
	r := workload.NewRunner(ss, workload.Uniform{Min: spec.minSize, Max: spec.maxSize}, seed)
	name := st.Name()
	checkLedger := func(after string) {
		var want int64
		for _, n := range ss.live {
			want += n
		}
		if got := st.ObjectCount(); got != len(ss.live) || got != len(r.Keys()) {
			o.problem("%s after %s: %d objects, ledger %d, load plan %d", name, after, got, len(ss.live), len(r.Keys()))
		}
		if got := st.LiveBytes(); got != want {
			o.problem("%s after %s: %d live bytes, ledger %d", name, after, got, want)
		}
	}
	phase := func(label, kind string, fn func() (workload.Result, error)) (workload.Result, error) {
		var req *request
		var sp int32
		if t != nil {
			req = t.newRequest("", kind)
			sp = t.begin(req, "workload", label, kind)
			r.WithContext(withRequest(context.Background(), req))
		}
		start := time.Now()
		res, err := fn()
		arm.wall += time.Since(start).Seconds()
		if t != nil {
			t.end(req, sp)
		}
		arm.ops += int64(res.Ops)
		arm.out.virtSeconds += res.Seconds
		if err != nil {
			return res, fmt.Errorf("%s %s: %w", name, label, err)
		}
		return res, nil
	}

	load, err := phase("load", kindWrite, func() (workload.Result, error) { return r.BulkLoad(spec.occupancy) })
	if err != nil {
		return nil, err
	}
	checkLedger("load")
	churn, err := phase("churn", kindWrite, func() (workload.Result, error) { return r.ChurnToAge(spec.ageTo, workload.ChurnOptions{}) })
	if err != nil {
		return nil, err
	}
	checkLedger("churn")
	arm.writes = int64(load.Ops + churn.Ops)
	arm.payloadWritten = load.Bytes + churn.Bytes
	fsStore, isFS := st.(*core.FileStore)
	var d0 disk.Stats
	if isFS {
		d0 = fsStore.Volume().Drive().Stats()
		arm.driveWritten = d0.BytesWritten
	}
	rd, err := phase("read", kindRead, func() (workload.Result, error) { return r.MeasureReadThroughput(spec.reads) })
	if err != nil {
		return nil, err
	}
	if isFS {
		d1 := fsStore.Volume().Drive().Stats()
		arm.diskReads, arm.diskSeeks = d1.Reads-d0.Reads, d1.Seeks-d0.Seeks
	}
	arm.out.objects = st.ObjectCount()
	arm.out.liveBytes = st.LiveBytes()
	arm.out.frags = frag.Analyze(st).MeanFragments()
	arm.out.readBytes, arm.out.readSeconds = rd.Bytes, rd.Seconds
	arm.reads, arm.writeL = ss.reads, ss.writes

	if isFS && compactFS {
		if err := compactArm(arm, o); err != nil {
			return nil, err
		}
	}
	return arm, nil
}

// compactArm runs compactor cycles on the fs store until one rewrites
// nothing, checking that the key set and live bytes survive.
func compactArm(arm *armRun, o *outcome) error {
	st := arm.st
	keys := st.Keys()
	slices.Sort(keys)
	live := st.LiveBytes()
	c, err := compact.New(st, compact.Config{DutyCycle: 1})
	if err != nil {
		return err
	}
	start := time.Now()
	cp := &arm.compact
	for {
		cs := c.RunOnce(context.Background())
		cp.cycles++
		cp.rewriteBytes += cs.RewriteBytes
		if cs.Errors > 0 {
			o.problem("compaction cycle %d: %d errors", cp.cycles, cs.Errors)
		}
		if cs.Rewrites == 0 && cs.Packs == 0 {
			break
		}
	}
	cp.wall = time.Since(start).Seconds()
	after := st.Keys()
	slices.Sort(after)
	if !slices.Equal(keys, after) {
		o.problem("compaction changed the key set: %d keys before, %d after", len(keys), len(after))
	}
	if got := st.LiveBytes(); got != live {
		o.problem("compaction changed live bytes: %d before, %d after", live, got)
	}
	cp.fragsAfter = frag.Analyze(st).MeanFragments()
	return nil
}

// simRep is one repetition: both arms.
type simRep struct {
	fs, db *armRun
}

func (r simRep) opsPerSec() float64 {
	return float64(r.fs.ops+r.db.ops) / (r.fs.wall + r.db.wall)
}

func (r simRep) ops() int64 { return r.fs.ops + r.db.ops }

// runRep runs both arms; compactFS adds the fs arm's compaction, whose
// outputs repeat exactly, so later repetitions skip it.
func runRep(spec simSpec, seed int64, t *Tracer, o *outcome, compactFS bool) (simRep, error) {
	fs, err := runArm(spec, false, seed, t, o, compactFS)
	if err != nil {
		return simRep{}, err
	}
	db, err := runArm(spec, true, seed, t, o, false)
	if err != nil {
		return simRep{}, err
	}
	return simRep{fs: fs, db: db}, nil
}

// combinedFrags is fragments per object over both arms' objects.
func (r simRep) combinedFrags() float64 {
	f, d := r.fs.out, r.db.out
	return (f.frags*float64(f.objects) + d.frags*float64(d.objects)) / float64(f.objects+d.objects)
}

// virtReadMBps is both arms' read bytes over their virtual read time.
func (r simRep) virtReadMBps() float64 {
	return units.MBps(r.fs.out.readBytes+r.db.out.readBytes, r.fs.out.readSeconds+r.db.out.readSeconds)
}

// runSim runs the sim-age workload.
func runSim(spec simSpec, cfg runConfig) (*outcome, error) {
	o := &outcome{workload: spec.name, seed: cfg.seed, counts: map[string]int64{}}
	var setupTimes []float64
	for range spec.setups {
		start := time.Now()
		for _, db := range []bool{false, true} {
			st, err := newSimStore(spec, db)
			if err != nil {
				return nil, err
			}
			blob.CloseStore(st)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		releaseMemory()
	}
	reps := max(1, int(math.Round(float64(cfg.seconds)/spec.repSeconds)))
	if cfg.trace {
		reps = 1
	}
	var runs []simRep
	var rates []float64
	var reads, writes []int64
	var rt rtSample // runtime deltas summed over the repetitions alone
	for i := range reps {
		rt0 := readRuntime()
		rep, err := runRep(spec, cfg.seed, nil, o, i == 0)
		if err != nil {
			return nil, err
		}
		rt.add(rt0, readRuntime())
		cfg.logf("%s: rep %d: %d ops in %.2fs wall, fs %.4g db %.4g frags/obj, compaction %d cycles in %.2fs",
			spec.name, i+1, rep.ops(), rep.fs.wall+rep.db.wall, rep.fs.out.frags, rep.db.out.frags,
			rep.fs.compact.cycles, rep.fs.compact.wall)
		if i > 0 && (rep.fs.out != runs[0].fs.out || rep.db.out != runs[0].db.out) {
			o.problem("repetition %d's simulated outputs differ from the first: fs %+v vs %+v, db %+v vs %+v",
				i+1, rep.fs.out, runs[0].fs.out, rep.db.out, runs[0].db.out)
		}
		o.attempted += rep.ops()
		rates = append(rates, rep.opsPerSec())
		reads = append(reads, rep.fs.reads...)
		reads = append(reads, rep.db.reads...)
		writes = append(writes, rep.fs.writeL...)
		writes = append(writes, rep.db.writeL...)
		rep.fs.reads, rep.fs.writeL, rep.db.reads, rep.db.writeL = nil, nil, nil, nil
		runs = append(runs, rep)
		releaseMemory()
	}
	allocPerOp, gcFrac := runtimeDelta(rtSample{}, rt, o.attempted)
	first := runs[0]
	o.counts["reps"] = int64(reps)
	o.counts["ops"] = o.attempted
	o.counts["fs_objects"] = int64(first.fs.out.objects)
	o.counts["db_objects"] = int64(first.db.out.objects)
	o.counts["compact_cycles"] = int64(first.fs.compact.cycles)
	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m := measured{}
		m.set("ops_per_s", median(rates), reps)
		m.set("read_p50_ms", quantileMs(reads, 0.5), len(reads))
		m.set("read_p99_ms", quantileMs(reads, 0.99), len(reads))
		m.set("write_p50_ms", quantileMs(writes, 0.5), len(writes))
		m.set("write_p99_ms", quantileMs(writes, 0.99), len(writes))
		m.set("setup_s", median(setupTimes), len(setupTimes))
		m.set("peak_rss_mb", rss, 1)
		m.set("frags_per_obj", first.combinedFrags(), first.fs.out.objects+first.db.out.objects)
		m.set("virt_read_mb_s", first.virtReadMBps(), 2*spec.reads)
		o.metrics = m.list(endToEnd)
		o.unbounded = m.list(unbounded)
		return o, nil
	}
	return o, traceSim(o, spec, cfg, first, allocPerOp, gcFrac)
}

// traceSim runs one traced repetition and adds the per-layer metrics.
// The runtime metrics come from the untraced repetition.
func traceSim(o *outcome, spec simSpec, cfg runConfig, untraced simRep, allocPerOp, gcFrac float64) error {
	t := NewTracer()
	rep, err := runRep(spec, cfg.seed, t, o, true)
	if err != nil {
		return err
	}
	o.attempted += rep.ops()
	if rep.fs.out != untraced.fs.out || rep.db.out != untraced.db.out ||
		rep.fs.compact.cycles != untraced.fs.compact.cycles || rep.fs.compact.fragsAfter != untraced.fs.compact.fragsAfter {
		o.problem("traced run's simulated outputs differ from the untraced run's")
	}
	spans := t.Spans()
	selfNs := selfTimes(spans)
	self := sumByLayer(spans, selfNs)
	total := sumByLayer(spans, nil)
	nReads := len(rep.fs.reads) + len(rep.db.reads)
	nWrites := int(rep.fs.writes + rep.db.writes)
	ops := rep.ops()
	f, d := rep.fs.out, rep.db.out

	fsStore := rep.fs.st.(*core.FileStore)
	dbStore := rep.db.st.(*core.DBStore)
	vs, es := fsStore.Volume().Stats(), dbStore.Engine().Stats()
	fsc, _ := blob.CommitStatsOf(fsStore)
	dbc, _ := blob.CommitStatsOf(dbStore)
	commits := float64(fsc.Commits + dbc.Commits)
	batches := float64(fsc.Batches + dbc.Batches)

	m := measured{}
	m.set("blob.mean_batch", ratio(commits, batches), int(commits))
	m.set("blob.forces_per_commit", ratio(batches, commits), int(commits))
	m.set("core.read_us", ratio(float64(total[layerKind{"core", kindRead}])/1e3, float64(nReads)), nReads)
	m.set("core.write_us", ratio(float64(total[layerKind{"core", kindWrite}])/1e3, float64(nWrites)), nWrites)
	workloadSelf := self[layerKind{"workload", kindRead}] + self[layerKind{"workload", kindWrite}]
	m.set("workload.self_us_per_op", ratio(float64(workloadSelf)/1e3, float64(ops)), int(ops))
	m.set("fs.free_runs", float64(vs.FreeRunCount), 1)
	m.set("fs.meta_writes_per_commit", ratio(float64(vs.MetaWrites), float64(fsc.Commits)), int(fsc.Commits))
	m.set("fs.frags_per_obj", f.frags, f.objects)
	m.set("fs.virt_read_mb_s", units.MBps(f.readBytes, f.readSeconds), spec.reads)
	m.set("db.log_forces_per_commit", ratio(float64(es.LogForces), float64(dbc.Commits)), int(dbc.Commits))
	m.set("db.ghosted_pages", float64(es.GhostedPages), 1)
	m.set("db.partial_extents", float64(es.PartialExtents), 1)
	m.set("db.pool_hit_rate", es.PoolHitRate, 1)
	m.set("db.frags_per_obj", d.frags, d.objects)
	m.set("db.virt_read_mb_s", units.MBps(d.readBytes, d.readSeconds), spec.reads)
	fsReads := len(rep.fs.reads)
	m.set("disk.reads_per_get", ratio(float64(rep.fs.diskReads), float64(fsReads)), fsReads)
	m.set("disk.seeks_per_get", ratio(float64(rep.fs.diskSeeks), float64(fsReads)), fsReads)
	m.set("disk.write_amp", ratio(float64(rep.fs.driveWritten), float64(rep.fs.payloadWritten)), int(rep.fs.writes))
	m.set("vclock.virt_ms_per_op", ratio((f.virtSeconds+d.virtSeconds)*1e3, float64(ops)), int(ops))
	m.set("frag.frags_per_obj", rep.combinedFrags(), f.objects+d.objects)
	cp := rep.fs.compact
	m.set("compact.cycles", float64(cp.cycles), 1)
	m.set("compact.rewrite_mb", float64(cp.rewriteBytes)/float64(units.MB), cp.cycles)
	m.set("compact.frags_after", cp.fragsAfter, f.objects)
	m.set("compact.mb_per_s", ratio(float64(cp.rewriteBytes)/float64(units.MB), cp.wall), cp.cycles)
	m.set("runtime.alloc_bytes_per_op", allocPerOp, int(untraced.ops()))
	m.set("runtime.gc_cpu_frac", gcFrac, 1)
	m.set("trace.overhead_frac", 1-rep.opsPerSec()/untraced.opsPerSec(), 2)
	o.metrics = m.list(perLayer)
	o.table = selfTable(spec.name, spans, self, total, map[string]int{kindRead: nReads, kindWrite: nWrites})
	return writeTrace(cfg, spec.name, spans)
}
