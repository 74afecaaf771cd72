package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Span is one timed call the benchmark made into a layer of the program.
// Spans of one op share Op; Parent is the index of the enclosing span in
// the recorder, or -1 for a root.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// Recorder holds spans in memory until the run ends. A disabled recorder
// records nothing and costs one branch per call, so untraced runs keep
// their timings clean.
type Recorder struct {
	on    bool
	epoch time.Time
	spans []Span
	stack []int
	op    int
}

// NewRecorder returns a recorder; on selects whether it records.
func NewRecorder(on bool) *Recorder {
	return &Recorder{on: on, epoch: time.Now(), op: -1}
}

// SetOp tags the spans that follow with op id (-1: outside any op).
func (r *Recorder) SetOp(op int) { r.op = op }

// Begin opens a span nested in the innermost open one and returns its
// handle for End.
func (r *Recorder) Begin(name string) int {
	if !r.on {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, Span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, Op: r.op})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

// End closes the span Begin returned. Spans close in LIFO order.
func (r *Recorder) End(id int) {
	if !r.on || id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
	r.stack = r.stack[:len(r.stack)-1]
}

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span { return r.spans }

// WriteJSON writes the spans as one JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(r.spans)
}

// SelfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover. Children may overlap one another;
// an instant covered by two children is subtracted once.
func SelfTimes(spans []Span) map[string]time.Duration {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s.Start, s.End, kids[i]))
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// Percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// Reportable reports whether the q-quantile of n samples has at least
// minBeyond samples beyond it: n minus the ceil(q·n) samples at or below.
func Reportable(q float64, n int) bool {
	atOrBelow := int(math.Ceil(q*float64(n) - 1e-9))
	return n-atOrBelow >= minBeyond
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return Percentile(xs, 0.5) }

func mustReportable(q float64, n int) error {
	if !Reportable(q, n) {
		return fmt.Errorf("p%g needs %d samples beyond it; only %d ops ran", 100*q, minBeyond, n)
	}
	return nil
}
