package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func miniConfig(t *testing.T, seed int64, trace bool) runConfig {
	return runConfig{seed: seed, seconds: 1, trace: trace, mini: true, traceDir: t.TempDir()}
}

// checkOutcome asserts every correctness check passed and the metrics
// are exactly defs, in order, each finite.
func checkOutcome(t *testing.T, o *outcome, defs []metricDef) {
	t.Helper()
	if len(o.problems) > 0 || o.failed > 0 || o.attempted < 1 {
		t.Fatalf("%s seed %d: problems %v, %d of %d ops failed", o.workload, o.seed, o.problems, o.failed, o.attempted)
	}
	if len(o.metrics) != len(defs) {
		t.Fatalf("%s: %d metrics, want %d", o.workload, len(o.metrics), len(defs))
	}
	for i, m := range o.metrics {
		if m.name != defs[i].name || m.unit != defs[i].unit || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Fatalf("%s: metric %d = %+v, want %+v with a finite value", o.workload, i, m, defs[i])
		}
	}
}

func TestWorkloadsMiniature(t *testing.T) {
	for name, run := range workloads {
		for _, seed := range []int64{1, 2} {
			o, err := run(miniConfig(t, seed, false))
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			checkOutcome(t, o, endToEnd)
			if len(o.unbounded) != len(unbounded) {
				t.Fatalf("%s: unbounded metrics %+v, want %v", name, o.unbounded, unbounded)
			}
			for _, m := range o.metrics {
				if m.value <= 0 {
					t.Errorf("%s seed %d: end-to-end metric %s = %v, want > 0", name, seed, m.name, m.value)
				}
			}
		}
	}
}

func TestWorkloadsMiniatureTraced(t *testing.T) {
	for name, run := range workloads {
		o, err := run(miniConfig(t, 3, true))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkOutcome(t, o, perLayer)
		if !strings.Contains(o.table, "per-layer self time") {
			t.Errorf("%s: no self-time table", name)
		}
	}
}

// TestSimOutputsRepeat pins that sim-age's simulated outputs repeat
// exactly for one seed and differ across seeds.
func TestSimOutputsRepeat(t *testing.T) {
	spec := simAge(true)
	outs := func(seed int64) simRep {
		o := &outcome{}
		rep, err := runRep(spec, seed, nil, o, true)
		if err != nil || len(o.problems) > 0 {
			t.Fatalf("seed %d: %v %v", seed, err, o.problems)
		}
		return rep
	}
	a, b, c := outs(1), outs(1), outs(2)
	if a.fs.out != b.fs.out || a.db.out != b.db.out {
		t.Fatalf("seed 1 outputs differ: %+v %+v vs %+v %+v", a.fs.out, a.db.out, b.fs.out, b.db.out)
	}
	if a.fs.compact.cycles < 2 || a.fs.compact.fragsAfter >= a.fs.out.frags {
		t.Fatalf("compaction did no work: %+v", a.fs.compact)
	}
	if a.fs.compact.cycles != b.fs.compact.cycles || a.fs.compact.rewriteBytes != b.fs.compact.rewriteBytes ||
		a.fs.compact.fragsAfter != b.fs.compact.fragsAfter {
		t.Fatalf("seed 1 compaction differs: %+v vs %+v", a.fs.compact, b.fs.compact)
	}
	if a.fs.out == c.fs.out {
		t.Fatalf("seeds 1 and 2 gave identical fs outputs %+v", a.fs.out)
	}
}

func TestReportLastLine(t *testing.T) {
	o := &outcome{workload: "w", seed: 1, attempted: 10, failed: 0, counts: map[string]int64{"ops": 10},
		metrics: []metric{{"ops_per_s", 1.5, "ops/s", 10}}, unbounded: []metric{{"read_p99_ms", 2, "ms", 5}}}
	var buf bytes.Buffer
	if err := report(&buf, o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] != true || res["attempted"] != 10.0 || res["failed"] != 0.0 {
		t.Fatalf("result line = %v", res)
	}
	m := res["metrics"].(map[string]any)["ops_per_s"].(map[string]any)
	if m["value"] != 1.5 || m["unit"] != "ops/s" || len(res["metrics"].(map[string]any)) != 1 {
		t.Fatalf("metrics = %v", res["metrics"])
	}
	if !strings.Contains(buf.String(), `"unbounded":{"fail_frac"`) || !strings.Contains(buf.String(), `"read_p99_ms":{"samples":5`) {
		t.Fatalf("details line lacks the unbounded metrics:\n%s", buf.String())
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// and the program's in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}
