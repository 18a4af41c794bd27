package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every metric name must match [A-Za-z0-9_.-]+, which is why policy names
// are mangled ("ship++" becomes "shippp").
func TestMetricNames(t *testing.T) {
	if got := metricName("ship++"); got != "shippp" {
		t.Fatalf("metricName(ship++) = %q", got)
	}
	seen := map[string]bool{}
	for _, m := range layerMetrics() {
		if !nameRE.MatchString(m.name) {
			t.Errorf("per-layer metric %q is not a valid name", m.name)
		}
		if seen[m.name] {
			t.Errorf("per-layer metric %q listed twice", m.name)
		}
		seen[m.name] = true
	}
}

// BENCHMARK.json must list exactly the metrics the benchmark prints.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range layerMetrics() {
		want = append(want, m.name+" "+m.unit+" "+m.better)
	}
	var got []string
	for _, m := range b.PerLayer {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("per_layer[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, m := range b.EndToEnd {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("end-to-end metric %q is not a valid name", m.Name)
		}
		if _, ok := endToEndUnits[m.Name]; !ok || endToEndUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %q (%s) is not printed with that unit", m.Name, m.Unit)
		}
	}
	if len(b.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(b.EndToEnd), len(endToEndUnits))
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q, want %q", i, b.Workloads[i].Name, w.name)
		}
	}
}
