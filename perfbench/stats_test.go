package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// The reported tail is the highest percentile with at least ten samples
// ranked beyond it.
func TestHighestPercentileRule(t *testing.T) {
	ladder := []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 19, ok: false},            // the median has 9 beyond it
		{n: 20, want: 0.5, ok: true},  // 10 beyond the median
		{n: 99, want: 0.75, ok: true}, // p90 has 9 beyond
		{n: 100, want: 0.9, ok: true},
		{n: 999, want: 0.95, ok: true},
		{n: 1000, want: 0.99, ok: true},
		{n: 10000, want: 0.999, ok: true},
	} {
		got, ok := highestPercentile(c.n, ladder)
		if ok != c.ok || got != c.want {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", b)
	}
}

func TestTailRefusesThinSamples(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := tail("x", xs, 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	got, err := tail("x", append(xs, 999), 0.99)
	if err != nil || got != 989 {
		t.Errorf("p99 of 0..999 = %v, %v; want 989", got, err)
	}
}

func TestSetTimingsReportsTailByRule(t *testing.T) {
	m := metrics{}
	xs := make([]float64, 120)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	m.setTimings("lag", xs)
	if _, ok := m["lag_p90_ms"]; !ok {
		t.Errorf("120 samples support p90; got %v", m)
	}
	if _, ok := m["lag_p95_ms"]; ok {
		t.Errorf("120 samples leave 6 beyond p95; got %v", m)
	}
	if got := m["lag_p50_ms"]; got.Value != 60.5 || got.Samples != 120 {
		t.Errorf("lag_p50_ms = %+v", got)
	}
}

func TestWindowedMedianOfWindows(t *testing.T) {
	// Five 10-unit windows; window 2 holds a burst that a whole-run
	// figure would absorb and the median over windows ignores.
	var xs []sample
	for at := int64(0); at < 55; at++ {
		v := 1.0
		if at >= 20 && at < 30 {
			v = 100
		}
		xs = append(xs, sample{at: at, v: v})
	}
	got, n, err := windowed(xs, 0, 55, 10, func(win []sample) (float64, error) {
		if len(win) != 10 {
			t.Errorf("window of %d samples, want 10", len(win))
		}
		var total float64
		for _, x := range win {
			total += x.v
		}
		return total, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || got != 10 {
		t.Errorf("windowed = %v over %d windows, want 10 over 5 (the partial sixth dropped)", got, n)
	}
	if _, _, err := windowed(xs, 0, 5, 10, func([]sample) (float64, error) { return 0, nil }); err == nil {
		t.Error("a phase shorter than one window must be refused")
	}
}

func TestRateCountsWorkTime(t *testing.T) {
	// Three requests of 16 points taking 2, 3 and 3 ms: 48 points in 8 ms
	// of work, whatever ran between them.
	xs := []sample{{at: 0, v: 16, busy: 0.002}, {at: 5e8, v: 16, busy: 0.003}, {at: 9e8, v: 16, busy: 0.003}}
	got, err := rate(xs)
	if err != nil || math.Abs(got-6000) > 1e-6 {
		t.Errorf("rate = %v, %v; want 6000", got, err)
	}
	if _, err := rate(nil); err == nil {
		t.Error("no work has no rate")
	}
}
