package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is the number of samples the reported tail percentile must
// have beyond it: with fewer, the "p99" of a short run is one sample's
// noise.
const tailBeyond = 10

// summary holds the sorted samples of one timing.
type summary struct{ sorted []float64 }

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{s}
}

func (s summary) n() int { return len(s.sorted) }

// rank returns the 1-based nearest-rank index of quantile q.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// p50 is the median by nearest rank; 0 without samples.
func (s summary) p50() float64 {
	if s.n() == 0 {
		return 0
	}
	return s.sorted[rank(s.n(), 0.5)-1]
}

// tail is the "p99" of the benchmark: the 99th percentile when at least
// tailBeyond samples lie beyond it, else the highest percentile that
// still has tailBeyond samples beyond it. q is the percentile used; ok is
// false when there are too few samples for any such percentile.
func (s summary) tail() (v, q float64, ok bool) {
	n := s.n()
	if n <= tailBeyond {
		return 0, 0, false
	}
	r := min(rank(n, 0.99), n-tailBeyond)
	return s.sorted[r-1], float64(r) / float64(n), true
}

func (s summary) mean() float64 {
	if s.n() == 0 {
		return 0
	}
	var t float64
	for _, x := range s.sorted {
		t += x
	}
	return t / float64(s.n())
}

func median(xs []float64) float64 { return summarize(xs).p50() }

func values(ss []sample) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = s.v
	}
	return xs
}

// maxTailWindows bounds how many equal windows of a phase a tail metric
// is taken over, and windowSamples is the fewest samples a window may
// hold, so each window's tail is a true 99th percentile.
const (
	maxTailWindows = 5
	windowSamples  = 1000
)

// windowedTail is the median, over equal windows of a phase of length
// dur, of each window's tail: one burst of CPU taken by other tenants of
// the machine moves the tail of the window it falls in, not the reported
// value. There are as many windows, up to maxTailWindows, as the samples
// fill with windowSamples each; sparse timings get one window. ok is
// false when no window has enough samples for a tail.
func windowedTail(ss []sample, dur time.Duration) (float64, bool) {
	n := min(max(len(ss)/windowSamples, 1), maxTailWindows)
	wins := make([][]float64, n)
	for _, s := range ss {
		w := min(max(int(int64(s.at)*int64(n)/int64(dur)), 0), n-1)
		wins[w] = append(wins[w], s.v)
	}
	var tails []float64
	for _, w := range wins {
		if t, _, ok := summarize(w).tail(); ok {
			tails = append(tails, t)
		}
	}
	if len(tails) == 0 {
		return 0, false
	}
	return median(tails), true
}
