package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input: 100..1
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{0.5, 50, 50},
		{0.9, 90, 10},
		{0.99, 99, 1},
		{1, 100, 0},
	} {
		v, b := percentile(xs, c.p)
		if v != c.want || b != c.beyond {
			t.Errorf("p%g = %v (beyond %d), want %v (beyond %d)", c.p*100, v, b, c.want, c.beyond)
		}
	}
	if xs[0] != 100 {
		t.Fatal("percentile reordered its input")
	}
}

func TestPercentileTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	if _, _, err := checkedPercentile(xs, 0.9); err != nil {
		t.Fatalf("100 samples leave 10 beyond p90: %v", err)
	}
	if _, b, err := checkedPercentile(xs[:99], 0.9); err == nil {
		t.Fatalf("99 samples leave %d beyond p90, want a refusal", b)
	}
	if _, _, err := checkedPercentile(xs[:20], 0.5); err != nil {
		t.Fatalf("20 samples leave 10 beyond p50: %v", err)
	}
}

// Whole passes over five equally weighted requests put p50 and p90 in
// the middle of a latency band, never on the edge between two bands.
func TestPercentileMidBand(t *testing.T) {
	var xs []float64
	for pass := 0; pass < 20; pass++ {
		for band := 1; band <= 5; band++ {
			xs = append(xs, float64(band*100+pass))
		}
	}
	p50, _ := percentile(xs, 0.5)
	p90, _ := percentile(xs, 0.9)
	// Each band holds ranks 20k+1..20k+20; rank 50 and rank 90 are the
	// tenth sample of the third and fifth bands.
	if p50 != 309 {
		t.Errorf("p50 = %v, want 309, the middle of the third band", p50)
	}
	if p90 != 509 {
		t.Errorf("p90 = %v, want 509, the middle of the fifth band", p90)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %v, want 4", g)
	}
	if g := geomean([]float64{2.5}); g != 2.5 {
		t.Errorf("geomean(2.5) = %v", g)
	}
	if g := geomean([]float64{1, 0}); !math.IsNaN(g) {
		t.Errorf("geomean with a zero = %v, want NaN", g)
	}
	if g := geomean(nil); !math.IsNaN(g) {
		t.Errorf("geomean() = %v, want NaN", g)
	}
}

func TestCPUPerRequest(t *testing.T) {
	if v := cpuMSPerReq(400*time.Millisecond, 8); v != 50 {
		t.Errorf("cpu per request = %v ms, want 50", v)
	}
	if v := cpuMSPerReq(time.Second, 0); !math.IsNaN(v) {
		t.Errorf("cpu per request with no requests = %v, want NaN", v)
	}
}

// Reference values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}
