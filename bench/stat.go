package main

import (
	"math"
	"sort"
	"time"
)

// ms and us are a duration in milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle of vals (mean of the two middles for an even
// count), 0 for none. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sorted(vals)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// minBeyond is how many samples must lie beyond a reported tail percentile
// for it to mean anything (choosing-metrics §1).
const minBeyond = 10

// tailPercentile reports the want'th percentile (0.5 < want < 1) of vals when
// at least minBeyond samples lie beyond its rank. With fewer samples it falls
// back to the highest rank that still has minBeyond samples beyond it, but
// never below the median: a workload with too few samples to resolve any tail
// reports its median. pct is the percentile actually reported, so a caller
// can print "p95" or "p62".
func tailPercentile(vals []float64, want float64) (value, pct float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	s := sorted(vals)
	idx := int(math.Ceil(want*float64(n))) - 1
	if limit := n - 1 - minBeyond; idx > limit {
		idx = limit
	}
	if mid := (n - 1) / 2; idx < mid {
		idx = mid
	}
	return s[idx], float64(idx+1) / float64(n)
}

// quartiles mirrors Python's statistics.quantiles(vals, n=4) (the
// "exclusive" method), which is what the acceptance driver uses to size a
// metric's run-to-run spread. It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sorted(vals)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
