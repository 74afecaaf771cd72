package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimesNested(t *testing.T) {
	spans := []Span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "core.run", Start: 10, End: 60, Parent: 0},
		{Name: "core.lint", Start: 60, End: 70, Parent: 0},
		{Name: "inner", Start: 20, End: 30, Parent: 1},
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{"op": 40, "core.run": 40, "core.lint": 10, "inner": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: self %d, want %d", k, got[k], v)
		}
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []Span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 50, Parent: 0},
		{Name: "b", Start: 30, End: 70, Parent: 0},  // overlaps a by 20
		{Name: "c", Start: 40, End: 45, Parent: 0},  // inside both
		{Name: "d", Start: 90, End: 120, Parent: 0}, // runs past its parent
	}
	// Covered: [10,70) and [90,100) = 70, so op's self time is 30.
	if got := SelfTimes(spans)["op"]; got != 30 {
		t.Errorf("op self %d, want 30", got)
	}
}

func TestRecorderParents(t *testing.T) {
	r := NewRecorder(true)
	r.SetOp(7)
	a := r.Begin("op")
	b := r.Begin("core.run")
	r.End(b)
	c := r.Begin("core.lint")
	r.End(c)
	r.End(a)
	s := r.Spans()
	if len(s) != 3 || s[0].Parent != -1 || s[1].Parent != 0 || s[2].Parent != 0 {
		t.Fatalf("spans %+v", s)
	}
	for _, sp := range s {
		if sp.Op != 7 || sp.End < sp.Start {
			t.Errorf("span %+v", sp)
		}
	}
	off := NewRecorder(false)
	off.End(off.Begin("op"))
	if len(off.Spans()) != 0 {
		t.Error("disabled recorder recorded")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.9, 4.6}} {
		if got := Percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q=%g: %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty input should give NaN")
	}
}

// TestReportable pins the rule: a percentile is reported only when at
// least ten samples lie beyond it.
func TestReportable(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		want bool
	}{
		{0.5, 19, false},
		{0.5, 20, true},
		{0.9, 99, false},
		{0.9, 100, true},
		{0.9, 168, true},
		{0.99, 999, false},
		{0.99, 1000, true},
	} {
		if got := Reportable(c.q, c.n); got != c.want {
			t.Errorf("p%g of %d samples: reportable %v, want %v", 100*c.q, c.n, got, c.want)
		}
	}
}
