package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/frag"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// servedSpec sizes one served workload.
type servedSpec struct {
	name        string
	db          bool  // DBStore cores (else FileStore)
	shards      int   // core stores; more than one puts shard.Store above them
	volumeBytes int64 // per core store
	cacheBytes  int64
	groupCommit bool
	clients     int
	// objects, when positive, is the object count loaded; otherwise the
	// load fills occupancy of the fleet's capacity.
	objects          int
	occupancy        float64
	minSize, maxSize int64
	ageTo            float64 // storage age reached during set-up
	readsPerWrite    int
	zipf             float64 // read popularity exponent; 0 reads uniformly
	warmReads        int     // per client; 0 reads every owned key once
	opsPerSecond     int     // measured ops = opsPerSecond × --seconds
	virtReads        int     // reads of the aged store for virt_read_mb_s
	setups           int     // set-ups per untraced run (setup_s is their median)
}

func smallHot(mini bool) servedSpec {
	s := servedSpec{name: "serve-small-hot", db: true, shards: 1,
		volumeBytes: 256 * units.MB, cacheBytes: 256 * units.MB, groupCommit: true,
		clients: 2, objects: 2048, minSize: 64 * units.KB, maxSize: 64 * units.KB,
		readsPerWrite: 8, zipf: 1.1, opsPerSecond: 5000, virtReads: 2048, setups: 3}
	if mini {
		s.volumeBytes, s.cacheBytes, s.objects, s.opsPerSecond, s.virtReads, s.setups =
			16*units.MB, 16*units.MB, 64, 100, 64, 1
	}
	return s
}

func largeAged(mini bool) servedSpec {
	s := servedSpec{name: "serve-large-aged", shards: 4,
		volumeBytes: 256 * units.MB, cacheBytes: 64 * units.MB,
		clients: 2, occupancy: 0.5, minSize: 1 * units.MB, maxSize: 4 * units.MB,
		ageTo: 2, readsPerWrite: 2, warmReads: 100, opsPerSecond: 280, virtReads: 256, setups: 3}
	if mini {
		s.volumeBytes, s.cacheBytes, s.minSize, s.maxSize, s.warmReads, s.opsPerSecond, s.virtReads, s.setups =
			32*units.MB, 8*units.MB, 256*units.KB, 1*units.MB, 4, 20, 16, 1
	}
	return s
}

// objState is the last committed version of one key, and a version a
// failed write may or may not have committed.
type objState struct {
	ver      int
	size     int64
	pendVer  int
	pendSize int64
}

// stack is one served store stack and its listener.
type stack struct {
	spec  servedSpec
	clock *vclock.Clock
	cores []blob.Store   // the core stores, unwrapped
	coreT []*tracedStore // their trace wrappers (traced stacks only)
	below blob.Store     // the store under the cache, as the cache sees it
	cache *cache.Store
	srv   *server.Server
	hs    *http.Server
	url   string
	h     *tracedHandler
	done  chan error // the serving goroutine's exit

	keys    []string
	state   []objState
	clients []*client.Store
	owned   [][]int // key indices each client owns
}

// buildStack assembles core → (shard) → cache → server on a loopback
// listener, with trace wrappers at each boundary when t is non-nil.
func buildStack(spec servedSpec, t *Tracer) (*stack, error) {
	st := &stack{spec: spec, clock: vclock.New()}
	opts := []blob.Option{blob.WithCapacity(spec.volumeBytes), blob.WithDiskMode(disk.DataMode)}
	if spec.groupCommit {
		opts = append(opts, blob.WithGroupCommit(8, 200*time.Microsecond))
	}
	children := make([]blob.Store, spec.shards)
	for i := range children {
		var c blob.Store
		var err error
		if spec.db {
			c, err = core.NewDBStore(st.clock, opts...)
		} else {
			c, err = core.NewFileStore(st.clock, opts...)
		}
		if err != nil {
			st.close()
			return nil, err
		}
		st.cores = append(st.cores, c)
		children[i] = c
		if t != nil {
			ts := &tracedStore{Store: c, t: t, layer: "core"}
			st.coreT = append(st.coreT, ts)
			children[i] = ts
		}
	}
	st.below = children[0]
	if spec.shards > 1 {
		sh, err := shard.New(children...)
		if err != nil {
			st.close()
			return nil, err
		}
		st.below = sh
		if t != nil {
			st.below = &tracedStore{Store: sh, t: t, layer: "shard"}
		}
	}
	c, err := cache.New(st.below, cache.WithCapacity(spec.cacheBytes))
	if err != nil {
		st.close()
		return nil, err
	}
	st.cache = c
	var served blob.Store = c
	if t != nil {
		served = &tracedStore{Store: c, t: t, layer: "cache"}
	}
	st.srv, err = server.New(served, server.Config{})
	if err != nil {
		st.close()
		return nil, err
	}
	var handler http.Handler = st.srv
	if t != nil {
		st.h = &tracedHandler{t: t, next: st.srv}
		handler = st.h
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: handler}
	st.done = make(chan error, 1)
	go func() { st.done <- st.hs.Serve(ln) }()
	return st, nil
}

// stopServing shuts the listener down and waits for in-flight handlers.
func (st *stack) stopServing() error {
	if st.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	st.hs = nil
	return err
}

// close drops the clients, stops serving and releases every store's
// commit pipeline.
func (st *stack) close() {
	st.closeClients()
	st.stopServing()
	if st.srv != nil {
		st.srv.Close()
	}
	for _, c := range st.cores {
		blob.CloseStore(c)
	}
}

// load fills the stack through the top store (no wire) with payloads of
// version 0, then safe-replaces uniformly chosen keys until storage age
// reaches spec.ageTo. Every payload derives from seed + key + version.
// Under group commit, loaders run concurrently so batches fill instead
// of each commit waiting out the batch delay alone.
func (st *stack) load(seed int64) error {
	ctx := context.Background()
	spec := st.spec
	rng := rand.New(rand.NewSource(seed))
	dist := workload.Uniform{Min: spec.minSize, Max: spec.maxSize}
	target := int64(spec.occupancy * float64(spec.volumeBytes*int64(spec.shards)))
	var planned int64
	for i := 0; ; i++ {
		size := dist.Sample(rng)
		if spec.objects > 0 && i == spec.objects || spec.objects == 0 && planned+size > target {
			break
		}
		planned += size
		st.keys = append(st.keys, fmt.Sprintf("obj-%05d", i))
		st.state = append(st.state, objState{size: size})
	}
	tracker := core.NewAgeTracker(st.cache)
	loaders := 1
	if spec.groupCommit {
		loaders = 8
	}
	errs := make([]error, loaders)
	var wg sync.WaitGroup
	for g := range loaders {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, spec.maxSize)
			for i := g; i < len(st.keys) && errs[g] == nil; i += loaders {
				size := st.state[i].size
				fillPayload(buf[:size], seed, st.keys[i], 0)
				if err := tracker.Put(ctx, st.keys[i], size, buf[:size]); err != nil {
					errs[g] = fmt.Errorf("load %s: %w", st.keys[i], err)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	buf := make([]byte, spec.maxSize)
	for tracker.Age() < spec.ageTo {
		i := rng.Intn(len(st.keys))
		s := &st.state[i]
		size := dist.Sample(rng)
		fillPayload(buf[:size], seed, st.keys[i], s.ver+1)
		if err := tracker.Replace(ctx, st.keys[i], size, buf[:size]); err != nil {
			return fmt.Errorf("age %s: %w", st.keys[i], err)
		}
		s.ver, s.size = s.ver+1, size
	}
	return nil
}

// servedOp is one op of a client's seeded stream.
type servedOp struct {
	key   int // index into stack.keys
	write bool
	size  int64 // new size of a write
}

// opStream returns client c's n ops: one replace of a uniformly chosen
// owned key, then readsPerWrite reads drawn by the popularity mix.
func (spec servedSpec) opStream(seed int64, c int, owned []int, n int) []servedOp {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 7919*int64(c) + 1))
	dist := workload.Uniform{Min: spec.minSize, Max: spec.maxSize}
	var zipf *rand.Zipf
	if spec.zipf > 0 && len(owned) > 1 {
		zipf = rand.NewZipf(rng, spec.zipf, 1, uint64(len(owned)-1))
	}
	ops := make([]servedOp, n)
	for i := range ops {
		if i%(spec.readsPerWrite+1) == 0 {
			ops[i] = servedOp{key: owned[rng.Intn(len(owned))], write: true, size: dist.Sample(rng)}
			continue
		}
		j := 0
		if zipf != nil {
			j = int(zipf.Uint64())
		} else {
			j = rng.Intn(len(owned))
		}
		ops[i] = servedOp{key: owned[j]}
	}
	return ops
}

// clientRun is one client's measured-phase record.
type clientRun struct {
	reads, writes []int64 // wall latency, ns
	failed        int64
	bytesWritten  int64
	problems      []string
}

// drive runs ops through cl, verifying every fetch against the last
// committed version of its key. The key partition is this client's
// alone, so st.state entries it touches are never shared.
func (st *stack) drive(ctx context.Context, cl *client.Store, seed int64, ops []servedOp, t *Tracer) *clientRun {
	cr := &clientRun{}
	buf := make([]byte, st.spec.maxSize)
	fail := func(format string, args ...any) {
		cr.failed++
		if len(cr.problems) < 5 {
			cr.problems = append(cr.problems, fmt.Sprintf(format, args...))
		}
	}
	for _, op := range ops {
		key, s := st.keys[op.key], &st.state[op.key]
		kind := kindRead
		if op.write {
			kind = kindWrite
		}
		var req *request
		var sp int32
		if t != nil {
			req = t.newRequest(key, kind)
			sp = t.begin(req, "client", kind, kind)
		}
		if op.write {
			ver := max(s.ver, s.pendVer) + 1
			fillPayload(buf[:op.size], seed, key, ver)
			start := time.Now()
			err := cl.Upload(ctx, key, op.size, buf[:op.size], true)
			cr.writes = append(cr.writes, int64(time.Since(start)))
			if err != nil {
				fail("replace %s: %v", key, err)
				s.pendVer, s.pendSize = ver, op.size
			} else {
				s.ver, s.size, s.pendVer = ver, op.size, 0
				cr.bytesWritten += op.size
			}
		} else {
			start := time.Now()
			size, data, err := cl.Fetch(ctx, key)
			cr.reads = append(cr.reads, int64(time.Since(start)))
			switch {
			case err != nil:
				fail("fetch %s: %v", key, err)
			case size == s.size && payloadMatches(data, s.size, seed, key, s.ver):
			case s.pendVer > 0 && size == s.pendSize && payloadMatches(data, s.pendSize, seed, key, s.pendVer):
				s.ver, s.size, s.pendVer = s.pendVer, s.pendSize, 0
			default:
				fail("fetch %s: %d bytes do not match version %d (%d bytes)", key, len(data), s.ver, s.size)
			}
		}
		if t != nil {
			t.end(req, sp)
			t.finishRequest(key)
		}
	}
	return cr
}

// setUp builds, loads, ages and warms one stack and dials its clients.
func setUp(spec servedSpec, seed int64, t *Tracer) (*stack, error) {
	st, err := buildStack(spec, t)
	if err != nil {
		return nil, err
	}
	if err := st.warm(seed); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// warm loads the stack, dials the clients and has each fetch its keys
// (serve-small-hot: every one, filling the cache) or spec.warmReads
// random ones, checking the load.
func (st *stack) warm(seed int64) error {
	spec := st.spec
	if err := st.load(seed); err != nil {
		return err
	}
	st.owned = make([][]int, spec.clients)
	for i := range st.keys {
		st.owned[i%spec.clients] = append(st.owned[i%spec.clients], i)
	}
	for range spec.clients {
		c, err := client.Dial(st.url)
		if err != nil {
			return err
		}
		st.clients = append(st.clients, c)
	}
	for c, keys := range st.owned {
		rng := rand.New(rand.NewSource(seed + int64(c)))
		var ops []servedOp
		if spec.warmReads == 0 {
			for _, k := range keys {
				ops = append(ops, servedOp{key: k})
			}
		} else {
			for range spec.warmReads {
				ops = append(ops, servedOp{key: keys[rng.Intn(len(keys))]})
			}
		}
		if cr := st.drive(context.Background(), st.clients[c], seed, ops, nil); cr.failed > 0 {
			return fmt.Errorf("warm-up: %d failed reads: %v", cr.failed, cr.problems)
		}
	}
	return nil
}

func (st *stack) closeClients() {
	for _, c := range st.clients {
		c.Close()
	}
	st.clients = nil
}

// phase is one measured phase's record.
type phase struct {
	ops, failed     int64
	wall            float64
	reads, writes   []int64
	bytesWritten    int64
	problems        []string
	allocPerOp, gcF float64
}

// measure runs every client's seeded op stream concurrently, then drops
// the clients and stops serving.
func (st *stack) measure(seed int64, n int, t *Tracer) (phase, error) {
	clients := st.clients
	runs := make([]*clientRun, len(clients))
	streams := make([][]servedOp, len(clients))
	for c := range clients {
		streams[c] = st.spec.opStream(seed, c, st.owned[c], n/len(clients))
	}
	rt0 := readRuntime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runs[c] = st.drive(context.Background(), clients[c], seed, streams[c], t)
		}(c)
	}
	wg.Wait()
	p := phase{wall: time.Since(start).Seconds()}
	for _, r := range runs {
		p.ops += int64(len(r.reads) + len(r.writes))
		p.failed += r.failed
		p.reads = append(p.reads, r.reads...)
		p.writes = append(p.writes, r.writes...)
		p.bytesWritten += r.bytesWritten
		p.problems = append(p.problems, r.problems...)
	}
	p.allocPerOp, p.gcF = runtimeDelta(rt0, readRuntime(), p.ops)
	st.closeClients()
	return p, st.stopServing()
}

// runServed runs a served workload: set-ups, the measured phase, and the
// checks; traced runs add a second, traced stack and per-layer metrics
// (attempted, failed and the checks then cover both measured phases).
func runServed(spec servedSpec, cfg runConfig) (*outcome, error) {
	o := &outcome{workload: spec.name, seed: cfg.seed, counts: map[string]int64{}}
	n := max(spec.opsPerSecond*cfg.seconds, spec.clients)
	setups := spec.setups
	if cfg.trace {
		setups = 1
	}
	var setupTimes []float64
	var st *stack
	for i := range setups {
		if st != nil {
			st.close()
			releaseMemory()
		}
		start := time.Now()
		var err error
		if st, err = setUp(spec, cfg.seed, nil); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		cfg.logf("%s: set-up %d: %.2fs, %d objects", spec.name, i+1, setupTimes[i], len(st.keys))
	}
	p, err := st.measure(cfg.seed, n, nil)
	if err != nil {
		st.close()
		return nil, err
	}
	cfg.logf("%s: measured %d ops in %.2fs", spec.name, p.ops, p.wall)
	opsPerSec := float64(p.ops) / p.wall
	st.check(o, p)
	if !cfg.trace {
		frags, virt, err := st.layout(cfg.seed)
		if err != nil {
			st.close()
			return nil, err
		}
		st.close()
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m := measured{}
		m.set("ops_per_s", opsPerSec, int(p.ops))
		m.set("read_p50_ms", quantileMs(p.reads, 0.5), len(p.reads))
		m.set("read_p99_ms", quantileMs(p.reads, 0.99), len(p.reads))
		m.set("write_p50_ms", quantileMs(p.writes, 0.5), len(p.writes))
		m.set("write_p99_ms", quantileMs(p.writes, 0.99), len(p.writes))
		m.set("setup_s", median(setupTimes), len(setupTimes))
		m.set("peak_rss_mb", rss, 1)
		m.set("frags_per_obj", frags, len(st.keys))
		m.set("virt_read_mb_s", virt, spec.virtReads)
		o.metrics = m.list(endToEnd)
		o.unbounded = m.list(unbounded)
		return o, nil
	}
	st.close()
	releaseMemory()
	return o, traceServed(o, spec, cfg, n, p)
}

// check applies the end-of-run correctness checks to a measured phase.
func (st *stack) check(o *outcome, p phase) {
	o.attempted += p.ops
	o.failed += p.failed
	o.counts["ops"] += p.ops
	o.counts["reads"] += int64(len(p.reads))
	o.counts["writes"] += int64(len(p.writes))
	for _, pr := range p.problems {
		o.problem("%s", pr)
	}
	if p.failed > 0 {
		o.problem("%d of %d ops failed", p.failed, p.ops)
	}
	if got := st.cache.ObjectCount(); got != len(st.keys) {
		o.problem("store holds %d objects, want %d", got, len(st.keys))
	}
	if p.failed == 0 {
		var want int64
		for _, s := range st.state {
			want += s.size
		}
		if got := st.cache.LiveBytes(); got != want {
			o.problem("store holds %d live bytes, want %d", got, want)
		}
	}
}

// layout reports the aged store's mean fragments per object and its
// virtual read throughput over a seeded sample of whole-object reads.
func (st *stack) layout(seed int64) (frags, virtMBps float64, err error) {
	frags = frag.Analyze(st.below).MeanFragments()
	res, err := workload.ReadPhase(context.Background(), st.below, st.keys, st.spec.virtReads, seed, workload.ReadOptions{})
	if err != nil {
		return 0, 0, fmt.Errorf("virtual read phase: %w", err)
	}
	return frags, res.MBps, nil
}

// coreCounters is a reading of the counters below the core stores.
type coreCounters struct {
	metaWrites, logForces int64
	freeRuns              int
	ghosted, partial      int
	poolHitRate           float64
	drive                 disk.Stats
	commits               blob.CommitStats
	clockNs               int64
}

// counters sums the core stores' public counters.
func (st *stack) counters() coreCounters {
	var c coreCounters
	var hit float64
	for _, s := range st.cores {
		if cs, ok := blob.CommitStatsOf(s); ok {
			c.commits.Commits += cs.Commits
			c.commits.Batches += cs.Batches
		}
		switch s := s.(type) {
		case *core.FileStore:
			vs := s.Volume().Stats()
			c.metaWrites += vs.MetaWrites
			c.freeRuns += vs.FreeRunCount
			ds := s.Volume().Drive().Stats()
			c.drive.Reads += ds.Reads
			c.drive.Seeks += ds.Seeks
			c.drive.BytesWritten += ds.BytesWritten
		case *core.DBStore:
			es := s.Engine().Stats()
			c.logForces += es.LogForces
			c.ghosted += es.GhostedPages
			c.partial += es.PartialExtents
			hit += es.PoolHitRate
		}
	}
	if _, ok := st.cores[0].(*core.DBStore); ok {
		c.poolHitRate = hit / float64(len(st.cores))
	}
	c.clockNs = st.clock.Now()
	return c
}

// resetPhaseStats starts the phase-scoped ratios (cache hit rate, db
// buffer-pool hit rate) from zero.
func (st *stack) resetPhaseStats() {
	st.cache.ResetStats()
	for _, s := range st.cores {
		if d, ok := s.(*core.DBStore); ok {
			d.Engine().ResetPoolStats()
		}
	}
}

// traceServed runs the traced measured phase on a fresh stack and adds
// the per-layer metrics. The runtime metrics come from the untraced
// phase.
func traceServed(o *outcome, spec servedSpec, cfg runConfig, n int, untraced phase) error {
	t := NewTracer()
	st, err := setUp(spec, cfg.seed, t)
	if err != nil {
		return err
	}
	defer st.close()
	// ObjectCount takes each core store's lock, ordering the counter
	// reads below after the writes of every handler that ran before.
	for _, c := range st.cores {
		c.ObjectCount()
	}
	st.resetPhaseStats()
	before := st.counters()
	p, err := st.measure(cfg.seed, n, t)
	if err != nil {
		return err
	}
	for _, c := range st.cores {
		c.ObjectCount()
	}
	after := st.counters()
	st.check(o, p)

	spans := t.Spans()
	nReads, nWrites := len(p.reads), len(p.writes)
	self := sumByLayer(spans, selfTimes(spans))
	total := sumByLayer(spans, nil)
	perOp := func(m map[layerKind]int64, layer, kind string) float64 {
		return ratio(float64(m[layerKind{layer, kind}])/1e3, float64(opsOf(kind, nReads, nWrites)))
	}
	tracedOpsPerSec := float64(p.ops) / p.wall
	cs := st.cache.CacheStats()
	var coreOpens, coreOps []float64
	for _, ct := range st.coreT {
		coreOpens = append(coreOpens, float64(ct.opens.Load()))
		coreOps = append(coreOps, float64(ct.ops.Load()))
	}
	gets := sum(coreOpens)
	commits := float64(after.commits.Commits - before.commits.Commits)
	batches := float64(after.commits.Batches - before.commits.Batches)
	frags, virt, err := st.layout(cfg.seed)
	if err != nil {
		return err
	}

	m := measured{}
	for _, k := range []string{kindRead, kindWrite} {
		for _, layer := range []string{"client", "server", "cache", "shard"} {
			m.set(layer+"."+k+"_self_us", perOp(self, layer, k), opsOf(k, nReads, nWrites))
		}
		m.set("core."+k+"_us", perOp(total, "core", k), opsOf(k, nReads, nWrites))
	}
	m.set("server.shed", float64(st.h.shed.Load()), int(p.ops))
	m.set("cache.hit_ratio", cs.HitRate(), int(cs.Hits+cs.Misses))
	m.set("cache.evictions_per_op", ratio(float64(cs.Evictions), float64(p.ops)), int(p.ops))
	m.set("blob.mean_batch", ratio(commits, batches), int(commits))
	m.set("blob.forces_per_commit", ratio(batches, commits), int(commits))
	if len(coreOps) > 1 {
		m.set("shard.op_skew", maxOf(coreOps)/(sum(coreOps)/float64(len(coreOps))), int(sum(coreOps)))
	}
	if spec.db {
		m.set("db.log_forces_per_commit", ratio(float64(after.logForces-before.logForces), commits), int(commits))
		m.set("db.ghosted_pages", float64(after.ghosted), 1)
		m.set("db.partial_extents", float64(after.partial), 1)
		m.set("db.pool_hit_rate", after.poolHitRate, 1)
		m.set("db.frags_per_obj", frags, len(st.keys))
		m.set("db.virt_read_mb_s", virt, spec.virtReads)
	} else {
		m.set("fs.free_runs", float64(after.freeRuns), 1)
		m.set("fs.meta_writes_per_commit", ratio(float64(after.metaWrites-before.metaWrites), commits), int(commits))
		m.set("fs.frags_per_obj", frags, len(st.keys))
		m.set("fs.virt_read_mb_s", virt, spec.virtReads)
		m.set("disk.reads_per_get", ratio(float64(after.drive.Reads-before.drive.Reads), gets), int(gets))
		m.set("disk.seeks_per_get", ratio(float64(after.drive.Seeks-before.drive.Seeks), gets), int(gets))
		m.set("disk.write_amp", ratio(float64(after.drive.BytesWritten-before.drive.BytesWritten), float64(p.bytesWritten)), nWrites)
	}
	m.set("vclock.virt_ms_per_op", ratio(float64(after.clockNs-before.clockNs)/1e6, float64(p.ops)), int(p.ops))
	m.set("frag.frags_per_obj", frags, len(st.keys))
	m.set("runtime.alloc_bytes_per_op", untraced.allocPerOp, int(untraced.ops))
	m.set("runtime.gc_cpu_frac", untraced.gcF, 1)
	m.set("trace.overhead_frac", 1-tracedOpsPerSec/(float64(untraced.ops)/untraced.wall), 2)
	o.metrics = m.list(perLayer)
	o.table = selfTable(spec.name, spans, self, total, map[string]int{kindRead: nReads, kindWrite: nWrites})
	return writeTrace(cfg, spec.name, spans)
}

func opsOf(kind string, reads, writes int) int {
	if kind == kindWrite {
		return writes
	}
	return reads
}

// writeTrace writes the run's spans under cfg.traceDir.
func writeTrace(cfg runConfig, name string, spans []Span) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", name, cfg.seed))
	if err := writeChromeTrace(path, spans); err != nil {
		return err
	}
	cfg.logf("%s: %d spans written to %s", name, len(spans), path)
	return nil
}
