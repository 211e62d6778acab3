package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the number of samples a reported percentile must leave beyond
// it: p95 needs at least 200 samples, p50 at least 20.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule. It refuses — returns an error — when fewer than minTail samples lie
// beyond the requested rank, because such a tail is one or two outliers,
// not a percentile.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %.3f out of (0,1)", q)
	}
	if float64(n)*(1-q) < minTail {
		return 0, fmt.Errorf("p%g needs %d samples, have %d",
			q*100, int(math.Ceil(minTail/(1-q))), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	return s[rank], nil
}

// median is the plain middle value (mean of the two middles for an even
// count); unlike percentile it has no tail requirement, since it is used
// for small sets of repeated measurements such as set-up times.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// interval is one span's extent.
type interval struct{ start, end time.Time }

// covered returns how much of [lo, hi) the union of ivs covers. Children
// may overlap each other (concurrent fan-out) and may stick out of the
// parent, so the intervals are clipped and merged before summing.
func covered(lo, hi time.Time, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s.Before(lo) {
			s = lo
		}
		if e.After(hi) {
			e = hi
		}
		if e.After(s) {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv.start.After(cur.end):
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// selfTime is a span's duration minus the part of it that its child spans
// cover.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.end.Sub(parent.start) - covered(parent.start, parent.end, children)
}

// tally counts operations for the error rate. A failure is a report that
// does not match its golden, an unexpected error, a refused submission
// (429/503), or a job not terminal when its phase ends.
type tally struct {
	attempted, failed int
	reasons           map[string]int
}

// ok records one successful operation.
func (t *tally) ok() { t.attempted++ }

// fail records one failed operation under a reason class, printed in the
// run log so a non-zero error rate can be explained.
func (t *tally) fail(reason string) {
	t.attempted++
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

// errorRate is failed over attempted; 0 for an empty tally.
func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
