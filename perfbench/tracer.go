package main

import (
	"sort"
	"time"
)

// tracer records the benchmark's own spans around its calls into each
// layer of the program. The code it traces is sequential, so spans nest
// strictly; a span's self time is its duration minus its children's, and
// the self times of every span sum to the root's duration. The root's self
// time is the explicit remainder: the benchmark's glue between layers.
// A nil *tracer records nothing.
type tracer struct {
	spans []tspan
	open  []int // stack of open span indices
}

type tspan struct {
	name   string
	parent int // -1 for the root
	start  time.Time
	dur    time.Duration
}

func newTracer(root string) *tracer {
	t := &tracer{}
	t.begin(root)
	return t
}

// begin opens a span as a child of the innermost open span; end closes it.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, tspan{name: name, parent: parent, start: time.Now()})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].dur = time.Since(t.spans[i].start)
}

// add records a finished child span of the innermost open span whose
// duration was accumulated elsewhere (a stage summed over many slots).
func (t *tracer) add(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, tspan{name: name, parent: t.open[len(t.open)-1], dur: d})
}

// finish closes every open span and returns each span name's total self
// time, and the root's duration.
func (t *tracer) finish() (self map[string]time.Duration, total time.Duration) {
	for len(t.open) > 0 {
		t.end()
	}
	self = map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.name] += s.dur
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= s.dur
		}
	}
	return self, t.spans[0].dur
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
