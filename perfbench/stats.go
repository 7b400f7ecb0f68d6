package main

import (
	"math"
	"sort"
	"time"
)

// sample is one reported metric value with how it was obtained: Samples
// is the number of observations behind Value, Spread the distance
// between their first and third quartile as a share of the median (0
// when fewer than two observations exist).
type sample struct {
	Value   float64
	Unit    string
	Samples int
	Spread  float64
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailSupported reports whether n observations support the q-quantile
// under the sample-count rule of the choosing-metrics guide: a
// percentile is reported only when at least ten samples lie beyond it.
func tailSupported(n int, q float64) bool {
	beyond := n - int(math.Ceil(q*float64(n)))
	return beyond >= 10
}

// supportedPercentile is the q-quantile when the sample supports it and
// the median otherwise: a handful of whole explorations has no 95th
// percentile, and reporting their maximum under that name would gate a
// later change on one outlier.
func supportedPercentile(sorted []float64, q float64) float64 {
	if !tailSupported(len(sorted), q) {
		q = 0.5
	}
	return percentile(sorted, q)
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of their median, with the quartiles computed as
// Python's statistics.quantiles(xs, n=4) does (the exclusive method) —
// the driver's spread rule, so the two agree on the same values.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return math.Abs(cut(3)-cut(1)) / math.Abs(med)
}

// windowRates buckets event instants (offsets from the start of the
// measured interval) into consecutive windows and returns the event
// rate of every complete window, in events per second. Events at or
// past the last complete window's end are ignored: a partial window's
// rate is not comparable with a full one's.
func windowRates(at []time.Duration, interval, window time.Duration) []float64 {
	n := int(interval / window)
	if n < 1 {
		return nil
	}
	counts := make([]int, n)
	for _, t := range at {
		if t < 0 {
			continue
		}
		if w := int(t / window); w < n {
			counts[w]++
		}
	}
	rates := make([]float64, n)
	for i, c := range counts {
		rates[i] = float64(c) / window.Seconds()
	}
	return rates
}

// windowedPercentile buckets observations (value v[i] at instant at[i],
// an offset from the start of the measured interval) into consecutive
// windows and returns the median, over the complete windows that hold
// any, of each window's q-quantile — so a stall of the box that lands in
// one window moves the reading no more than any other single window
// would. It also returns how many observations the reading rests on.
func windowedPercentile(at []time.Duration, v []float64, interval, window time.Duration, q float64) (float64, int) {
	n := int(interval / window)
	if n < 1 {
		return 0, 0
	}
	buckets := make([][]float64, n)
	for i, t := range at {
		if w := int(t / window); t >= 0 && w < n {
			buckets[w] = append(buckets[w], v[i])
		}
	}
	var perWindow []float64
	used := 0
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		perWindow = append(perWindow, supportedPercentile(b, q))
		used += len(b)
	}
	return median(perWindow), used
}

// summarize folds the observations of one metric into a sample whose
// value is their median.
func summarize(xs []float64, unit string) sample {
	return sample{Value: median(xs), Unit: unit, Samples: len(xs), Spread: quartileSpread(xs)}
}
