package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.95); err == nil {
		t.Error("p95 of 199 samples leaves fewer than 10 beyond it, want an error")
	}
	xs = append(xs, 200)
	p95, err := percentile(xs, 0.95)
	if err != nil {
		t.Fatalf("p95 of 200 samples: %v", err)
	}
	if p95 != 190 {
		t.Errorf("p95 of 1..200 = %g, want 190 (nearest rank)", p95)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples, want an error")
	}
	p50, err := percentile(xs[:20], 0.5)
	if err != nil || p50 != 10 {
		t.Errorf("p50 of 1..20 = %g, %v; want 10", p50, err)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{nil, 0},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

// at builds a time at ms milliseconds past a fixed origin.
func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	parent := interval{at(0), at(100)}
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{{at(10), at(20)}, {at(50), at(70)}}, 70 * time.Millisecond},
		// Concurrent children overlap: their union counts once.
		{"overlapping", []interval{{at(10), at(40)}, {at(20), at(60)}, {at(30), at(35)}}, 50 * time.Millisecond},
		// A child sticking out of the parent is clipped to it.
		{"clipped", []interval{{at(-20), at(10)}, {at(90), at(130)}}, 80 * time.Millisecond},
		{"fully covered", []interval{{at(0), at(60)}, {at(50), at(100)}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLayerSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "image", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "pinpoint-executables", Start: at(0), End: at(40)},
		{ID: 3, Parent: 2, Name: "candidate", Start: at(0), End: at(30)},
		{ID: 4, Parent: 3, Name: "strip-recover", Start: at(5), End: at(15)},
		{ID: 5, Parent: 1, Name: "probe-replay", Start: at(40), End: at(90)},
		// Two concurrent probes: the layer's wall time counts once.
		{ID: 6, Parent: 5, Name: "probe", Start: at(45), End: at(85)},
		{ID: 7, Parent: 5, Name: "probe", Start: at(50), End: at(88)},
		// An unlisted span inherits its parent's layer.
		{ID: 8, Parent: 6, Name: "probe-dial", Start: at(46), End: at(47)},
	}
	got, layers := layerSelfTimes(spans)
	want := map[string]time.Duration{
		"pipeline": 10 * time.Millisecond, // 100 - 40 - 50
		"pinpoint": 30 * time.Millisecond, // 40 - the 10 of strip recovery
		"strip":    10 * time.Millisecond,
		"probe":    50 * time.Millisecond,
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("layer %s: %v, want %v", l, got[l], d)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want exactly %v", got, want)
	}
	if layers[8] != "probe" {
		t.Errorf("unlisted span layer %q, want probe", layers[8])
	}
}

func TestSchedulerTimes(t *testing.T) {
	roots := []span{
		{Start: at(0), End: at(40)},
		{Start: at(0), End: at(20)},
		{Start: at(20), End: at(30)},
	}
	busy, tail := schedulerTimes(at(0), at(45), roots, 2)
	if busy != 70*time.Millisecond {
		t.Errorf("busy %v, want 70ms", busy)
	}
	// Two images are in flight until 30ms; the call ends at 45ms.
	if tail != 15*time.Millisecond {
		t.Errorf("tail %v, want 15ms", tail)
	}
}

func TestTallyErrorRate(t *testing.T) {
	var tl tally
	if tl.errorRate() != 0 {
		t.Error("empty tally has a non-zero error rate")
	}
	for i := 0; i < 7; i++ {
		tl.ok()
	}
	tl.fail("golden-mismatch")
	tl.fail("refused")
	tl.fail("refused")
	if tl.attempted != 10 || tl.failed != 3 {
		t.Errorf("attempted %d failed %d, want 10 and 3", tl.attempted, tl.failed)
	}
	if math.Abs(tl.errorRate()-0.3) > 1e-12 {
		t.Errorf("error rate %g, want 0.3", tl.errorRate())
	}
	if tl.reasons["refused"] != 2 || tl.reasons["golden-mismatch"] != 1 {
		t.Errorf("reasons %v", tl.reasons)
	}
}
