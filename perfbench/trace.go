package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// A span is one timed call into a layer of the program. Spans nest: a
// span's parent is the span that was open when it started.
type span struct {
	Name       string
	Start, End time.Duration // offsets from the tracer's origin
	Parent     int           // index into tracer.spans, -1 for a root
	AllocBytes uint64        // heap bytes allocated while the span was open
}

// tracer keeps spans in memory; it is written out only when the traced
// run ends. Spans are opened and closed from one goroutine.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	before := t.allocated()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin), Parent: parent})
	t.open = append(t.open, id)
	return func() {
		s := &t.spans[id]
		s.End = time.Since(t.origin)
		s.AllocBytes = t.allocated() - before
		t.open = t.open[:len(t.open)-1]
	}
}

// do runs f inside a span.
func (t *tracer) do(name string, f func() error) error {
	end := t.begin(name)
	defer end()
	return f()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its direct children, indexed like spans.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(spans, children[i], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the given spans' intervals,
// clipped to [from, to].
func covered(spans []span, ids []int, from, to time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].Start, from), min(spans[id].End, to)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// layerTotal sums the spans of one name.
type layerTotal struct {
	Self, Wall time.Duration
	AllocBytes uint64
	Durations  []time.Duration
}

// layerTotals sums self time, wall time and allocated bytes by span
// name. Spans of one name never nest.
func layerTotals(spans []span) map[string]*layerTotal {
	self := selfTimes(spans)
	out := make(map[string]*layerTotal)
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.Self += self[i]
		lt.Wall += s.End - s.Start
		lt.AllocBytes += s.AllocBytes
		lt.Durations = append(lt.Durations, s.End-s.Start)
	}
	return out
}
