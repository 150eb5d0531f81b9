package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricsMatchBenchmarkJSON checks that the metrics the benchmark
// prints are exactly the ones BENCHMARK.json declares, with the same units
// and directions.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", tc.name, len(tc.got), len(tc.want))
		}
		declared := map[string]metricDef{}
		for _, m := range tc.got {
			declared[m.Name] = m
		}
		for _, m := range tc.want {
			if d, ok := declared[m.Name]; !ok {
				t.Errorf("%s: %s is printed but not declared", tc.name, m.Name)
			} else if d.Unit != m.Unit || d.Better != m.Better {
				t.Errorf("%s: %s declared as %s/%s, printed as %s/%s", tc.name, m.Name, d.Unit, d.Better, m.Unit, m.Better)
			}
		}
	}
}

// TestInputsDeterministic checks that a seed fixes the generated report
// datagrams and query sequence, and that another seed changes them.
func TestInputsDeterministic(t *testing.T) {
	for _, spec := range []servingSpec{steadySpec, churnSpec} {
		a, b := inputsHash(7, spec, 5000), inputsHash(7, spec, 5000)
		if a != b {
			t.Errorf("%d stations: same seed, different inputs: %s vs %s", spec.stations, a, b)
		}
		if c := inputsHash(8, spec, 5000); c == a {
			t.Errorf("%d stations: seeds 7 and 8 generate the same inputs", spec.stations)
		}
	}
}

// TestSmoke runs every workload briefly, traced, through the same code
// the measured runs use; it fails on any correctness gate or missing
// metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if err := os.MkdirAll("../.bench_build", 0o755); err != nil {
		t.Fatal(err)
	}
	if rc := runSmoke("..", 1); rc != 0 {
		t.Fatalf("smoke run exited %d", rc)
	}
}
