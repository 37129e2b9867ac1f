package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 0, Parent: -1, Name: "job", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a: union 10..50
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // clipped to the parent at 100
		{ID: 4, Parent: 2, Name: "d", Start: 25, End: 35},
		{ID: 5, Parent: -1, Name: "other", Start: 0, End: 7},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfByNameSumsToRootDuration(t *testing.T) {
	// A job with disjoint, nested children: the self times of the
	// subtree add up to the root's duration.
	spans := []spanRec{
		{ID: 0, Parent: -1, Name: "job", Start: 0, End: 1000},
		{ID: 1, Parent: 0, Name: "gen.build", Start: 0, End: 100},
		{ID: 2, Parent: 0, Name: "core.run", Start: 100, End: 800},
		{ID: 3, Parent: 2, Name: "dist.step", Start: 150, End: 500},
		{ID: 4, Parent: 2, Name: "dist.route", Start: 500, End: 600},
		{ID: 5, Parent: 2, Name: "dist.step", Start: 600, End: 700},
		{ID: 6, Parent: 0, Name: "span.verify", Start: 800, End: 990},
		{ID: 7, Parent: -1, Name: "job", Start: 2000, End: 2500}, // another job
	}
	self := selfByName(spans, 0)
	want := map[string]float64{"job": 10e-9, "gen.build": 100e-9, "core.run": 150e-9,
		"dist.step": 450e-9, "dist.route": 100e-9, "span.verify": 190e-9}
	var sum float64
	for k, v := range want {
		if math.Abs(self[k]-v) > 1e-15 {
			t.Errorf("%s: self %g, want %g", k, self[k], v)
		}
		sum += self[k]
	}
	if len(self) != len(want) {
		t.Errorf("self times for %d names, want %d: %v", len(self), len(want), self)
	}
	if math.Abs(sum-1000e-9) > 1e-15 {
		t.Errorf("self times sum to %g, want the root's 1000ns", sum)
	}
	if all := selfByName(spans, -1); math.Abs(all["job"]-(10e-9+500e-9)) > 1e-15 {
		t.Errorf("all roots: job self %g", all["job"])
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	if id := r.open("x", -1); id != -1 {
		t.Errorf("nil open = %d", id)
	}
	r.close(-1)
	r.snapshot(struct{}{})
}
