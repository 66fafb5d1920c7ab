package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1 // 1e-9 absorbs 99.9 not being exact
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// tailPercentile returns the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it, or 0 when even the median has not.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n > 0 && n-1-rankIndex(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of the samples (sorted
// in place), or 0 when there are none.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[rankIndex(p, len(samples))]
}

// ms and us convert a duration to fractional milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (xs is not modified).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is median over durations.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method), so
// the repeat mode reports the same spread the bounds are checked with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
