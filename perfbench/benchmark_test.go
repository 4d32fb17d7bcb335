package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and per-layer metrics this program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
		}
	}
	list := layerMetricList()
	if len(spec.PerLayer) != len(list) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(spec.PerLayer), len(list))
	}
	for i, m := range list {
		if spec.PerLayer[i] != (entry{m.name, m.unit}) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %v, the program prints %v", i, spec.PerLayer[i], m)
		}
	}
	for i, m := range endToEnd {
		if i >= len(spec.EndToEnd) || spec.EndToEnd[i] != (entry{m.name, m.unit}) {
			t.Errorf("end-to-end metric %d: the program prints %v; BENCHMARK.json has %v", i, m, spec.EndToEnd)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(spec.EndToEnd), len(endToEnd))
	}
}
