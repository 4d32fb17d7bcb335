package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	// root [0,100) has children a [10,40) and b [30,60), which overlap,
	// and c [70,80); a has a child d [15,25); e [50,120) starts inside
	// root but outlives it.
	spans := []span{
		{Name: "root", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 40 * ms, Parent: 0},
		{Name: "b", Start: 30 * ms, End: 60 * ms, Parent: 0},
		{Name: "c", Start: 70 * ms, End: 80 * ms, Parent: 0},
		{Name: "d", Start: 15 * ms, End: 25 * ms, Parent: 1},
		{Name: "e", Start: 90 * ms, End: 120 * ms, Parent: 0},
	}
	got := selfTimes(spans)
	want := []time.Duration{
		100*ms - 50*ms - 10*ms - 10*ms, // union of a and b is [10,60); c; e clipped to [90,100)
		20 * ms,                        // a minus d
		30 * ms,
		10 * ms,
		10 * ms,
		30 * ms,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

// TestSelfTimesAccountForWall checks the property the traced run relies
// on: when spans nest without overlapping, the self times of all spans
// sum to the root's duration.
func TestSelfTimesAccountForWall(t *testing.T) {
	tr := newTracer()
	end := tr.begin("root")
	tr.do("a", func() error {
		tr.do("a1", func() error { time.Sleep(time.Millisecond); return nil })
		time.Sleep(time.Millisecond)
		return nil
	})
	tr.do("b", func() error { time.Sleep(time.Millisecond); return nil })
	end()
	var sum time.Duration
	for _, d := range selfTimes(tr.spans) {
		if d < 0 {
			t.Fatalf("negative self time %v", d)
		}
		sum += d
	}
	if root := tr.spans[0].End - tr.spans[0].Start; sum != root {
		t.Errorf("self times sum to %v, root lasted %v", sum, root)
	}
	totals := layerTotals(tr.spans)
	if totals["a"].Wall < totals["a"].Self+totals["a1"].Self || len(totals["a1"].Durations) != 1 {
		t.Errorf("layer totals %+v", totals)
	}
	if totals["root"].AllocBytes < totals["a"].AllocBytes {
		t.Errorf("root allocated %d bytes, less than its child a's %d", totals["root"].AllocBytes, totals["a"].AllocBytes)
	}
}
