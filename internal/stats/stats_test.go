package stats

import (
	"math"
	"reflect"
	"testing"
)

const eps = 1e-12

func close(a, b float64) bool { return math.Abs(a-b) <= eps }

// TestSummarizeSyntheticHistories pins exact median/MAD/band values
// for the canonical history shapes the gate must handle. Bootstrap is
// disabled (Resamples: 0) so the expected band is exactly
// median ± Widen×MADScale×MAD.
func TestSummarizeSyntheticHistories(t *testing.T) {
	tests := []struct {
		name        string
		xs          []float64
		median, mad float64
		degenerate  bool
	}{
		{
			name:   "stable",
			xs:     []float64{0.100, 0.102, 0.098, 0.101, 0.099},
			median: 0.100,
			mad:    0.001,
		},
		{
			name:   "drifting",
			xs:     []float64{0.10, 0.11, 0.12, 0.13, 0.14},
			median: 0.12,
			mad:    0.01,
		},
		{
			name:   "bimodal",
			xs:     []float64{0.1, 0.1, 0.1, 0.2, 0.2, 0.2},
			median: 0.15000000000000002, // mean of the central pair
			mad:    0.05,
		},
		{
			name:       "single-sample",
			xs:         []float64{0.1},
			median:     0.1,
			mad:        0,
			degenerate: true,
		},
		{
			name:       "identical",
			xs:         []float64{0.25, 0.25, 0.25, 0.25},
			median:     0.25,
			mad:        0,
			degenerate: true,
		},
		{
			name:       "empty",
			xs:         nil,
			median:     0,
			mad:        0,
			degenerate: true,
		},
		{
			name:   "even-count",
			xs:     []float64{0.4, 0.1, 0.3, 0.2},
			median: 0.25, // input order must not matter
			mad:    0.1,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Median(tc.xs); !close(got, tc.median) {
				t.Errorf("Median = %v, want %v", got, tc.median)
			}
			if got := MAD(tc.xs); !close(got, tc.mad) {
				t.Errorf("MAD = %v, want %v", got, tc.mad)
			}
			b := Summarize(tc.xs, Options{})
			if b.N != len(tc.xs) {
				t.Errorf("N = %d, want %d", b.N, len(tc.xs))
			}
			wantLo := tc.median - 3*MADScale*tc.mad
			wantHi := tc.median + 3*MADScale*tc.mad
			if len(tc.xs) == 0 {
				wantLo, wantHi = 0, 0
			}
			if !close(b.Lo, wantLo) || !close(b.Hi, wantHi) {
				t.Errorf("band = [%v, %v], want [%v, %v]", b.Lo, b.Hi, wantLo, wantHi)
			}
			if b.Degenerate() != tc.degenerate {
				t.Errorf("Degenerate = %v, want %v", b.Degenerate(), tc.degenerate)
			}
		})
	}
}

func TestSummarizeWidenOverride(t *testing.T) {
	xs := []float64{0.10, 0.11, 0.12, 0.13, 0.14}
	b := Summarize(xs, Options{Widen: 2})
	want := 2 * MADScale * 0.01
	if !close(b.Hi-b.Median, want) || !close(b.Median-b.Lo, want) {
		t.Errorf("band = [%v, %v] around %v, want ±%v", b.Lo, b.Hi, b.Median, want)
	}
}

func TestVerdict(t *testing.T) {
	b := Band{Median: 0.100, Lo: 0.095, Hi: 0.105}
	for _, tc := range []struct {
		x    float64
		want Verdict
	}{
		{0.100, Stable},
		{0.105, Stable}, // band edges are inclusive
		{0.095, Stable},
		{0.1051, Regressed},
		{0.0949, Improved},
	} {
		if got := b.Verdict(tc.x); got != tc.want {
			t.Errorf("Verdict(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	for v, s := range map[Verdict]string{Stable: "stable", Regressed: "regressed", Improved: "improved"} {
		if v.String() != s {
			t.Errorf("String(%d) = %q, want %q", v, v.String(), s)
		}
	}
}

func TestHalfWidth(t *testing.T) {
	b := Band{Median: 0.10, Lo: 0.09, Hi: 0.13}
	if got := b.HalfWidth(); !close(got, 0.03) {
		t.Errorf("HalfWidth = %v, want 0.03", got)
	}
}

// TestBootstrapDeterministic pins the seeded bootstrap: the same
// history and seed must reproduce the identical band (bit for bit),
// a different seed is allowed to move it, and the interval must be
// sane — inside the sample range and containing the median.
func TestBootstrapDeterministic(t *testing.T) {
	xs := []float64{0.100, 0.115, 0.085, 0.112, 0.090, 0.108, 0.095, 0.103}
	opt := Options{Resamples: 1000, Seed: 1}
	a := Summarize(xs, opt)
	b := Summarize(xs, opt)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different bands:\n%+v\n%+v", a, b)
	}
	if a.Degenerate() {
		t.Fatalf("band degenerate: %+v", a)
	}
	if a.Lo > a.Median || a.Hi < a.Median {
		t.Errorf("band [%v, %v] does not contain median %v", a.Lo, a.Hi, a.Median)
	}
	// The band is the union of the MAD margin and the bootstrap CI, so
	// it is at least as wide as the MAD margin alone.
	noBoot := Summarize(xs, Options{})
	if a.Lo > noBoot.Lo+eps || a.Hi < noBoot.Hi-eps {
		t.Errorf("bootstrap band [%v, %v] narrower than MAD margin [%v, %v]", a.Lo, a.Hi, noBoot.Lo, noBoot.Hi)
	}
	// The bootstrap CI of the median never leaves the sample range, so
	// any widening beyond the MAD margin stays within it too.
	c := Summarize(xs, Options{Resamples: 1000, Seed: 2})
	if c.N != a.N || !close(c.Median, a.Median) || !close(c.MAD, a.MAD) {
		t.Errorf("seed must not move median/MAD: %+v vs %+v", a, c)
	}
}

// TestBootstrapWidensTightMargin: with Widen tiny, the band is driven
// by the bootstrap CI, which must bracket the median between the
// sample extremes.
func TestBootstrapWidensTightMargin(t *testing.T) {
	xs := []float64{0.10, 0.11, 0.12, 0.13, 0.14}
	b := Summarize(xs, Options{Resamples: 500, Seed: 7, Widen: 1e-9})
	if b.Degenerate() {
		t.Fatalf("expected bootstrap to widen the band: %+v", b)
	}
	if b.Lo < 0.10-eps || b.Hi > 0.14+eps {
		t.Errorf("bootstrap CI [%v, %v] outside sample range", b.Lo, b.Hi)
	}
}

// TestQuantileSorted pins the interpolation both bootstraps share: the
// reference reads a sorted slice, bootstrapCI an order-statistic
// accessor.
func TestQuantileSorted(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	at := func(k int) float64 { return s[k] }
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	} {
		if got := quantileSorted(s, tc.q); !close(got, tc.want) {
			t.Errorf("quantileSorted(%v) = %v, want %v", tc.q, got, tc.want)
		}
		if got := quantile(len(s), tc.q, at); !close(got, tc.want) {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantileSorted(nil, 0.5); got != 0 {
		t.Errorf("quantileSorted(empty) = %v, want 0", got)
	}
	if got := quantile(0, 0.5, at); got != 0 {
		t.Errorf("quantile(empty) = %v, want 0", got)
	}
}
