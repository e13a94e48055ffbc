// Command perfbench is the repository benchmark. It runs one workload
// per process and prints, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload serve-small-hot --seed 1 --seconds 25 --trace 0
//
// --workload all runs every workload in turn, each in its own process.
//
// Workloads:
//
//   - serve-small-hot: a 256 MB DataMode DBStore with group commit under
//     a 256 MB read cache, served on a loopback listener to 2 clients
//     over 2,048 × 64 KB objects, 1 replace to 8 Zipf(1.1) reads.
//   - serve-large-aged: a 4 × 256 MB DataMode FileStore shard fleet,
//     loaded to 50% with 1–4 MB objects and aged to storage age 2, under
//     a 64 MB cache, 2 clients, 1 replace to 2 uniform reads.
//   - sim-age: no wire, one stream; a 40 GB metadata-mode FileStore and
//     DBStore each loaded to 50% with 256 KB–4 MB objects, churned to
//     storage age 8 and read 500 times; then the fs store is compacted
//     until a cycle rewrites nothing.
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With --trace 1 the workload runs once untraced and once with
// the benchmark's span wrappers at every layer boundary; the metrics are
// the per-layer ones, a self-time table goes to standard output and the
// spans are written as Chrome trace-event JSON under .bench_build/traces.
//
// --seconds sizes the measured phase by op count (served workloads run
// a fixed number of seeded ops; sim-age repeats its fixed simulation),
// so a slower build does more wall time over the same work and ends at
// the same store age. PREDICTIONS.md lists which layer metric should
// move which end-to-end metric on which workload.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	seconds  int
	trace    bool
	mini     bool   // miniature sizes, for the package's own tests
	traceDir string // where the traced run writes its Chrome trace
	log      io.Writer
}

func (c runConfig) logf(format string, args ...any) {
	if c.log != nil {
		fmt.Fprintf(c.log, format+"\n", args...)
	}
}

// metric is one reported number with the sample count behind it.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// outcome is what a workload run reports.
type outcome struct {
	workload  string
	seed      int64
	problems  []string // correctness failures; empty means correct
	attempted int64
	failed    int64
	counts    map[string]int64 // op counts behind the metrics
	metrics   []metric         // the result line's metrics
	unbounded []metric         // printed, but kept out of the result line
	table     string           // per-layer self-time table (traced runs)
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"serve-small-hot":  func(c runConfig) (*outcome, error) { return runServed(smallHot(c.mini), c) },
	"serve-large-aged": func(c runConfig) (*outcome, error) { return runServed(largeAged(c.mini), c) },
	"sim-age":          func(c runConfig) (*outcome, error) { return runSim(simAge(c.mini), c) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload: serve-small-hot, serve-large-aged, sim-age, or all (each in its own process)")
	seed := flags.Int64("seed", 1, "seed of every generated input")
	seconds := flags.Int("seconds", 25, "nominal length of the measured phase")
	trace := flags.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if *name == "all" && *seconds >= 1 && (*trace == 0 || *trace == 1) {
		return runAll([]string{"--seed", strconv.FormatInt(*seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace)}, stdout, stderr)
	}
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceDir: filepath.Join(".bench_build", "traces"), log: stderr}
	o, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := report(stdout, o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// runAll runs every workload with flags, each in its own process
// (peak_rss_mb is per process).
func runAll(flags []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cmd := exec.Command(self, append([]string{"--workload", n}, flags...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
	}
	return 0
}

// report prints the human-readable table, a details line (host
// fingerprint, seed, op and sample counts) and the final result line.
func report(stdout io.Writer, o *outcome) error {
	w := bufio.NewWriter(stdout)
	if o.table != "" {
		fmt.Fprint(w, o.table)
	}
	fmt.Fprintf(w, "%-28s %16s  %-13s %s\n", "metric ("+o.workload+")", "value", "unit", "samples")
	samples := make(map[string]int, len(o.metrics))
	values := make(map[string]any, len(o.metrics))
	for _, m := range o.metrics {
		fmt.Fprintf(w, "%-28s %16.6g  %-13s %d\n", m.name, m.value, m.unit, m.samples)
		samples[m.name] = m.samples
		values[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	failFrac := ratio(float64(o.failed), float64(o.attempted))
	extra := map[string]any{}
	for _, m := range append(o.unbounded, metric{"fail_frac", failFrac, "ratio", int(o.attempted)}) {
		fmt.Fprintf(w, "%-28s %16.6g  %-13s %d (unbounded)\n", m.name, m.value, m.unit, m.samples)
		extra[m.name] = map[string]any{"value": m.value, "unit": m.unit, "samples": m.samples}
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "INCORRECT: %s\n", p)
	}
	details, err := json.Marshal(map[string]any{
		"workload": o.workload, "seed": o.seed, "host": fingerprint(),
		"counts": o.counts, "samples": samples, "unbounded": extra,
		"problems": o.problems,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "details %s\n", details)
	result, err := json.Marshal(map[string]any{
		"correct": len(o.problems) == 0, "attempted": o.attempted,
		"failed": o.failed, "metrics": values,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", result)
	return w.Flush()
}

// fingerprint describes the host a result was measured on.
func fingerprint() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": model,
	}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// releaseMemory returns a finished stack's memory to the OS, so the
// next set-up starts from the same footprint.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// rtSample is a runtime/metrics reading.
type rtSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// add accumulates the change from before to after.
func (s *rtSample) add(before, after rtSample) {
	s.allocBytes += after.allocBytes - before.allocBytes
	s.gcCPU += after.gcCPU - before.gcCPU
	s.totalCPU += after.totalCPU - before.totalCPU
}

// runtimeDelta reports allocated bytes per op and the GC's share of CPU
// between two readings.
func runtimeDelta(before, after rtSample, ops int64) (allocPerOp, gcFrac float64) {
	allocPerOp = ratio(float64(after.allocBytes-before.allocBytes), float64(ops))
	gcFrac = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	return allocPerOp, gcFrac
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantileMs returns the q-quantile of latencies in milliseconds,
// interpolating between closest ranks. ns is sorted in place.
func quantileMs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	pos := q * float64(len(ns)-1)
	lo := int(pos)
	hi := min(lo+1, len(ns)-1)
	v := float64(ns[lo]) + (pos-float64(lo))*float64(ns[hi]-ns[lo])
	return v / 1e6
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
