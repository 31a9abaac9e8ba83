package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracleQuantile returns the same rank convention Quantile documents,
// computed exactly from a sorted copy of the samples.
func oracleQuantile(samples []int64, q float64) int64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int64(q * float64(len(s)))
	if float64(rank) < q*float64(len(s)) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// checkQuantiles feeds samples into a LatencyHist and verifies every probed
// quantile against the sorted-slice oracle within the RelErr guarantee.
func checkQuantiles(t *testing.T, name string, samples []int64) {
	t.Helper()
	var h LatencyHist
	for _, v := range samples {
		h.Add(v)
	}
	if h.Count() != int64(len(samples)) {
		t.Fatalf("%s: count %d != %d", name, h.Count(), len(samples))
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		want := oracleQuantile(samples, q)
		got := h.Quantile(q)
		if err := math.Abs(float64(got - want)); err > RelErr*float64(want) {
			t.Errorf("%s: q=%g: got %d, oracle %d, error %g > %g",
				name, q, got, want, err, RelErr*float64(want))
		}
	}
}

func TestQuantilePointMass(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 70, 12345, 1 << 40} {
		samples := make([]int64, 1000)
		for i := range samples {
			samples[i] = v
		}
		checkQuantiles(t, "point mass", samples)
		var h LatencyHist
		for _, s := range samples {
			h.Add(s)
		}
		// A point mass must report exactly: min/max clamping pins every
		// quantile to the one observed value.
		if got := h.Quantile(0.5); got != v {
			t.Errorf("point mass at %d: p50 = %d", v, got)
		}
	}
}

func TestQuantileBimodal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		if rng.Float64() < 0.95 {
			samples = append(samples, 900+rng.Int63n(200)) // fast mode
		} else {
			samples = append(samples, 900_000+rng.Int63n(200_000)) // slow mode
		}
	}
	checkQuantiles(t, "bimodal", samples)
}

func TestQuantileHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	samples := make([]int64, 0, 50000)
	for i := 0; i < 50000; i++ {
		u := rng.Float64()
		if u == 0 {
			u = 0.5
		}
		// Pareto-ish: most samples small, occasional samples 4+ orders of
		// magnitude larger.
		samples = append(samples, int64(100/math.Pow(u, 2.5)))
	}
	checkQuantiles(t, "heavy tail", samples)
}

func TestQuantileExactBelow64(t *testing.T) {
	var h LatencyHist
	var samples []int64
	for v := int64(0); v < 64; v++ {
		for k := int64(0); k <= v; k++ {
			h.Add(v)
			samples = append(samples, v)
		}
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 1} {
		if got, want := h.Quantile(q), oracleQuantile(samples, q); got != want {
			t.Errorf("q=%g: got %d, want exact %d", q, got, want)
		}
	}
}

func TestNegativeClampsToZero(t *testing.T) {
	var h LatencyHist
	h.Add(-5)
	if h.Count() != 1 || h.Min() != 0 || h.Max() != 0 || h.Quantile(1) != 0 {
		t.Fatalf("negative sample not clamped: count=%d min=%d max=%d",
			h.Count(), h.Min(), h.Max())
	}
}
