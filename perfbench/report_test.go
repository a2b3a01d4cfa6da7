package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 100},
		{1, 100},
		{19, 100},  // p50 leaves 9 beyond
		{20, 50},   // p50 leaves 10
		{39, 50},   // p75 leaves 9
		{40, 75},   // p75 leaves 10
		{99, 75},   // p90 leaves 9
		{100, 90},  // p90 leaves 10
		{199, 90},  // p95 leaves 9
		{200, 95},  // p95 leaves 10
		{999, 95},  // p99 leaves 9
		{1000, 99}, // p99 leaves 10
		{50000, 99},
	} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestTailOfReportsPercentileAndCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 down to 1, unsorted input
	}
	tail := TailOf(xs)
	if tail.P != 99 || tail.N != 1000 || tail.Value != 990 {
		t.Fatalf("TailOf = %+v, want p99 = 990 over 1000", tail)
	}
	beyond := 0
	for _, x := range xs {
		if x > tail.Value {
			beyond++
		}
	}
	if beyond < minBeyond {
		t.Fatalf("%d samples beyond the reported tail, want >= %d", beyond, minBeyond)
	}
	if xs[0] != 1000 {
		t.Fatal("TailOf sorted its input in place")
	}
	if got := TailOf([]float64{3, 1, 2}); got.P != 100 || got.Value != 3 || got.N != 3 {
		t.Fatalf("TailOf of 3 samples = %+v, want the maximum", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("Median = %v, want 2.5", got)
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("Median = %v, want 3", got)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "experiment.multi-cutoff_s", "server.direct.jobs_per_s", "9lives", strings.Repeat("a", 64)} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "-lead", "has space", "slash/name", "ünïcode", "x{y}", strings.Repeat("a", 65)} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"s", "ms", "1/s", "jobs/s", "%", "MiB", "count"} {
		if !ValidUnit(ok) {
			t.Errorf("ValidUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "a b", "seventeen-letters"} {
		if ValidUnit(bad) {
			t.Errorf("ValidUnit(%q) = true", bad)
		}
	}
}

func TestEmitRejectsMissingExtraAndNonFinite(t *testing.T) {
	defs := []metricDef{{"a_s", "s"}, {"b", "count"}}
	if _, err := Emit(defs, map[string]float64{"a_s": 1}, 1, 0); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := Emit(defs, map[string]float64{"a_s": 1, "b": 2, "c": 3}, 1, 0); err == nil {
		t.Error("undeclared metric accepted")
	}
	if _, err := Emit(defs, map[string]float64{"a_s": math.NaN(), "b": 2}, 1, 0); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := Emit([]metricDef{{"bad name", "s"}}, map[string]float64{"bad name": 1}, 1, 0); err == nil {
		t.Error("malformed name accepted")
	}
	line, err := Emit(defs, map[string]float64{"a_s": 1.25, "b": 2}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	var r Result
	if err := json.Unmarshal(line, &r); err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Attempted != 10 || r.Failed != 1 || r.Metrics["a_s"] != (Metric{1.25, "s"}) {
		t.Fatalf("Emit = %s", line)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}
