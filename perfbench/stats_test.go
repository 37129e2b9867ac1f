package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestHighestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true}, // p99 of 999 has only 9 samples beyond it
		{200, 95, true},
		{199, 90, true},
		{100, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		got, ok := highestTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < 10 {
			t.Errorf("n=%d: p%v has %d samples beyond it", c.n, got, beyond(c.n, got))
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("interpolated median = %v, want 1.5", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// TestMetricNamesMatchBenchmarkJSON pins the metric lists the binary
// prints to the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside this directory:", err)
	}
	type def struct{ Name, Unit string }
	var doc struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []metricDef
		want []def
	}{{"end_to_end", endToEnd, doc.EndToEnd}, {"per_layer", perLayer, doc.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: binary reports %d metrics, BENCHMARK.json declares %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i].name != c.want[i].Name || c.got[i].unit != c.want[i].Unit {
				t.Errorf("%s[%d]: binary %s (%s), BENCHMARK.json %s (%s)", c.what, i,
					c.got[i].name, c.got[i].unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}
