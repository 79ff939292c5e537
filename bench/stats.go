package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs
// without modifying it; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// midMean is the mean of the middle half of xs (the interquartile
// mean): as deaf to outliers as the median, but it moves smoothly when
// the sample splits into two modes of similar size, where the median
// jumps from one to the other.
func midMean(xs []float64) float64 {
	if len(xs) < 4 {
		return mean(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[len(s)/4 : len(s)-len(s)/4])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// chunkedPercentile splits xs into consecutive chunks of at least 40
// samples (at most k of them), takes the q-quantile of each, and returns
// the median of those: one GC pause or burst of interference lands in
// one chunk and cannot move the reported tail, while every chunk is
// still long enough for its own tail percentile not to be its maximum.
func chunkedPercentile(xs []float64, k int, q float64) float64 {
	k = min(k, len(xs)/40)
	if k < 2 {
		return percentile(xs, q)
	}
	per := make([]float64, 0, k)
	for c := 0; c < k; c++ {
		lo, hi := c*len(xs)/k, (c+1)*len(xs)/k
		per = append(per, percentile(xs[lo:hi], q))
	}
	return median(per)
}

// heapObjects reads the cumulative count of heap objects allocated by
// the process; deltas around a call count its allocations (plus those of
// any goroutine running beside it).
func heapObjects() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// heapLiveMB forces a collection and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
