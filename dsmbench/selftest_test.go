package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// Seeds every output check must pass on: the default and a held-out
// seed never used while sizing the workloads.
const (
	defaultSeed = 1
	heldOutSeed = 97
)

// TestSelfTest runs every workload at quick size with all output
// checks, so a broken workload fails before any timed run.
func TestSelfTest(t *testing.T) {
	for _, name := range []string{"strided", "kv", "forkstorm"} {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			if err := selfTest(workloads[name], seed); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	conv := func(ds []metricDef, withBound bool) []def {
		var out []def
		for _, d := range ds {
			x := def{Name: d.name, Unit: d.unit, Better: d.better}
			if withBound {
				b := d.bound
				x.Bound = &b
			}
			out = append(out, x)
		}
		return out
	}
	if got, want := doc.EndToEnd, conv(endToEnd, true); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end differs from the program's metrics:\n got %+v\nwant %+v", got, want)
	}
	if got, want := doc.PerLayer, conv(perLayer, false); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs from the program's metrics:\n got %+v\nwant %+v", got, want)
	}
}
