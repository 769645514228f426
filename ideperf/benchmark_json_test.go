package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatches holds BENCHMARK.json to the metric and workload
// names the program emits, so a reader of BENCHMARK.json never asks for a
// metric the JSON line lacks.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		return out
	}
	if got := names(b.Workloads); !reflect.DeepEqual(got, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, workloads)
	}
	if got := names(b.EndToEnd); !reflect.DeepEqual(got, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, program emits %v", got, e2eMetrics)
	}
	if got := names(b.PerLayer); !reflect.DeepEqual(got, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, program emits %v", got, perLayerMetrics)
	}
}
