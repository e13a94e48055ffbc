package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the bounded metrics of an untraced run, in print order.
// Every workload reports every one.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s"},
	{"read_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"frags_per_obj", "frags/obj"},
	{"virt_read_mb_s", "MB/s"},
}

// unbounded lists end-to-end metrics an untraced run prints (in the table
// and the details line) but leaves out of the result line: on a 2-vCPU
// host shared with other tenants, ten runs of serve-small-hot spread
// their p99s by up to 0.9 of the median, wider than any bound the
// benchmark may set.
var unbounded = []metricDef{
	{"read_p99_ms", "ms"},
	{"write_p99_ms", "ms"},
}

// perLayer lists the metrics of a traced run, in print order. A layer a
// workload does not have reports 0 (e.g. client.* on sim-age,
// compact.* on the served workloads, disk.* on serve-small-hot, whose
// database drive is not exposed).
var perLayer = []metricDef{
	{"client.read_self_us", "us"},
	{"client.write_self_us", "us"},
	{"server.read_self_us", "us"},
	{"server.write_self_us", "us"},
	{"server.shed", "count"},
	{"cache.read_self_us", "us"},
	{"cache.write_self_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions_per_op", "count/op"},
	{"blob.mean_batch", "commits/force"},
	{"blob.forces_per_commit", "forces/commit"},
	{"shard.read_self_us", "us"},
	{"shard.write_self_us", "us"},
	{"shard.op_skew", "max/mean"},
	{"core.read_us", "us"},
	{"core.write_us", "us"},
	{"workload.self_us_per_op", "us"},
	{"fs.free_runs", "count"},
	{"fs.meta_writes_per_commit", "writes/commit"},
	{"fs.frags_per_obj", "frags/obj"},
	{"fs.virt_read_mb_s", "MB/s"},
	{"db.log_forces_per_commit", "forces/commit"},
	{"db.ghosted_pages", "pages"},
	{"db.partial_extents", "extents"},
	{"db.pool_hit_rate", "ratio"},
	{"db.frags_per_obj", "frags/obj"},
	{"db.virt_read_mb_s", "MB/s"},
	{"disk.reads_per_get", "reads/get"},
	{"disk.seeks_per_get", "seeks/get"},
	{"disk.write_amp", "ratio"},
	{"vclock.virt_ms_per_op", "ms/op"},
	{"frag.frags_per_obj", "frags/obj"},
	{"compact.cycles", "count"},
	{"compact.rewrite_mb", "MB"},
	{"compact.frags_after", "frags/obj"},
	{"compact.mb_per_s", "MB/s"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// measured collects a run's metric values by name with their sample
// counts, to be emitted in a fixed list's order.
type measured map[string]metric

func (m measured) set(name string, value float64, samples int) {
	m[name] = metric{name: name, value: value, samples: samples}
}

// list returns defs' values in order, with 0 for any m lacks.
func (m measured) list(defs []metricDef) []metric {
	out := make([]metric, len(defs))
	for i, d := range defs {
		v := m[d.name]
		out[i] = metric{d.name, v.value, d.unit, v.samples}
	}
	return out
}

// layerKind keys span totals by layer and op kind.
type layerKind struct{ layer, kind string }

// sumByLayer sums per-span values (durations when vals is nil) by layer
// and kind.
func sumByLayer(spans []Span, vals []int64) map[layerKind]int64 {
	out := make(map[layerKind]int64)
	for i, s := range spans {
		v := s.End - s.Start
		if vals != nil {
			v = vals[i]
		}
		out[layerKind{s.Layer, s.Kind}] += v
	}
	return out
}

// selfTable formats per-layer span counts, total and self time, and
// self time per client op of each kind.
func selfTable(name string, spans []Span, self, total map[layerKind]int64, ops map[string]int) string {
	count := make(map[layerKind]int)
	for _, s := range spans {
		count[layerKind{s.Layer, s.Kind}]++
	}
	keys := make([]layerKind, 0, len(count))
	for k := range count {
		keys = append(keys, k)
	}
	order := map[string]int{"client": 0, "server": 1, "cache": 2, "shard": 3, "workload": 4, "core": 5}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return order[keys[i].layer] < order[keys[j].layer]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer self time (%s, traced run)\n", name)
	fmt.Fprintf(&b, "%-10s %-6s %10s %12s %12s %12s\n", "layer", "kind", "spans", "total_ms", "self_ms", "self_us/op")
	for _, k := range keys {
		fmt.Fprintf(&b, "%-10s %-6s %10d %12.2f %12.2f %12.2f\n", k.layer, k.kind, count[k],
			float64(total[k])/1e6, float64(self[k])/1e6, ratio(float64(self[k])/1e3, float64(ops[k.kind])))
	}
	return b.String()
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
