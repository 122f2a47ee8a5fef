package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank (the smallest
// sample with at least q of the samples at or below it); 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	h := len(s) / 2
	if len(s)%2 == 0 {
		return (s[h-1] + s[h]) / 2
	}
	return s[h]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// fasterHalf is the rate Σwork/Σtime over the faster half of the
// samples (by work/time; the middle one counts when there is an odd
// number). Interference from the host — other guests' CPU time, late
// wake-ups — only ever slows a sample down, so for samples that are
// alike but for when they ran, such as segments of one closed loop, the
// faster half reads the program rather than the host.
func fasterHalf(work, time []float64) float64 {
	idx := make([]int, len(work))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(work[b]*time[a], work[a]*time[b]) })
	var w, t float64
	for _, i := range idx[:(len(idx)+1)/2] {
		w += work[i]
		t += time[i]
	}
	return ratio(w, t)
}

// lowerHalf is the mean of the lower half of xs (the middle value
// counts when there is an odd number): for times, the samples the host
// slowed down least.
func lowerHalf(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return mean(s[:(len(s)+1)/2])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a counter with no base reads 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
