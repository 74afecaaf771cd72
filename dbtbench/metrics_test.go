package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMetrics checks that the metrics the benchmark prints
// are exactly the ones BENCHMARK.json declares, with the same units.
func TestBenchmarkJSONMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e := &env{rec: NewRecorder(true), tally: tally{}, setup: tally{}}
	w := window{ops: 1, wall: 1, lats: []float64{1}, rounds: []round{{wall: 1, cpu: 1, insts: 1, ops: 1}}}
	plain := endToEnd(w, 1)
	compare := func(what string, got map[string]metric, want []decl) {
		var names []string
		for _, d := range want {
			m, ok := got[d.Name]
			if !ok {
				t.Errorf("%s: declared %s is not reported", what, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s: %s reported in %s, declared %s", what, d.Name, m.Unit, d.Unit)
			}
			names = append(names, d.Name)
		}
		sort.Strings(names)
		for n := range got {
			if i := sort.SearchStrings(names, n); i == len(names) || names[i] != n {
				t.Errorf("%s: reported %s is not declared", what, n)
			}
		}
	}
	compare("end_to_end", plain, spec.EndToEnd)
	compare("per_layer", perLayer(e, w, 1, plain, plain), spec.PerLayer)
}
