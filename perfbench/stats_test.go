package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: summarize must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64 // value = rank, since samples are 1..n
		q    float64
	}{
		{n: 5000, want: 4950, q: 0.99}, // p99 proper: 50 samples beyond
		{n: 1000, want: 990, q: 0.99},  // exactly 10 beyond
		{n: 500, want: 490, q: 0.98},   // p99 would leave 5: back off to 10 beyond
		{n: 11, want: 1, q: 1.0 / 11},
	} {
		v, q, ok := summarize(seq(c.n)).tail()
		if !ok || v != c.want || q != c.q {
			t.Errorf("n=%d: tail = %v at q=%v ok=%v, want %v at q=%v", c.n, v, q, ok, c.want, c.q)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want >= %d", c.n, beyond, tailBeyond)
		}
	}
	if _, _, ok := summarize(seq(10)).tail(); ok {
		t.Error("10 samples cannot have a percentile with 10 beyond it")
	}
}

func TestP50NearestRank(t *testing.T) {
	if got := summarize(seq(9)).p50(); got != 5 {
		t.Errorf("p50 of 1..9 = %v, want 5", got)
	}
	if got := summarize(nil).p50(); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestWindowedTailIsMedianOfWindowTails(t *testing.T) {
	const dur = 5 * time.Second
	var ss []sample
	// Five windows of the samples 1..1000, one of them hit by a burst that
	// inflates its tail.
	for w := 0; w < 5; w++ {
		for i := 1; i <= 1000; i++ {
			v := float64(i)
			if w == 3 && i > 980 {
				v = 1e6
			}
			ss = append(ss, sample{at: time.Duration(w)*time.Second + time.Duration(i)*time.Microsecond, v: v})
		}
	}
	got, ok := windowedTail(ss, dur)
	if !ok || got != 990 {
		t.Errorf("windowed tail = %v ok=%v, want 990: the burst window must not move it", got, ok)
	}
	// Too few samples for more than one window: the whole phase's tail.
	got, ok = windowedTail(ss[:500], dur)
	if !ok || got != 490 {
		t.Errorf("sparse windowed tail = %v ok=%v, want 490", got, ok)
	}
}
