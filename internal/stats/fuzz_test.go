package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fuzzHistory decodes fuzz bytes into a sample history. An even first
// byte selects a coarse grid, where resamples tie all the time (as
// with a quantized timer); an odd one reads raw float64 bit patterns,
// keeping the finite ones. NaN and negative zero are left out: no
// total order ranks them, so no two median algorithms need agree on
// them, and a measured kernel time is never either.
func fuzzHistory(data []byte) []float64 {
	if len(data) == 0 {
		return nil
	}
	mode, data := data[0], data[1:]
	var xs []float64
	if mode%2 == 0 {
		for _, b := range data {
			xs = append(xs, float64(b%16+1)/64)
		}
	} else {
		for ; len(data) >= 8; data = data[8:] {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			if x == 0 {
				x = 0 // drop the sign of zero
			}
			xs = append(xs, x)
		}
	}
	if len(xs) > 64 {
		xs = xs[:64]
	}
	return xs
}

// checkBootstrap compares bootstrapCI with the sort-based reference
// bit for bit, and checks that it leaves its input alone.
func checkBootstrap(t *testing.T, xs []float64, o Options) {
	t.Helper()
	in := append([]float64(nil), xs...)
	lo, hi := bootstrapCI(xs, o)
	rlo, rhi := sortBootstrapCI(in, o)
	if math.Float64bits(lo) != math.Float64bits(rlo) || math.Float64bits(hi) != math.Float64bits(rhi) {
		t.Fatalf("bootstrapCI(%v, %+v) = [%v, %v], reference [%v, %v]", in, o, lo, hi, rlo, rhi)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(in[i]) {
			t.Fatalf("bootstrapCI reordered its input: %v, was %v", xs, in)
		}
	}
}

func FuzzBootstrapCI(f *testing.F) {
	f.Add([]byte{0, 3, 1, 4, 1, 5}, int64(1), uint16(999), uint8(94))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, resamples uint16, confidence uint8) {
		xs := fuzzHistory(data)
		if len(xs) == 0 {
			return
		}
		checkBootstrap(t, xs, Options{
			Resamples:  int(resamples%2000) + 1,
			Seed:       seed,
			Confidence: float64(confidence%99+1) / 100,
		})
	})
}

// TestBootstrapMatchesReference runs the fuzz comparison over a fixed
// sweep of random histories: 1 to 20 samples with frequent ties, 1 to
// 1000 resamples, any confidence; then over pools too large for the
// dense pair table, and an empty one.
func TestBootstrapMatchesReference(t *testing.T) {
	cases := 2000
	if testing.Short() {
		cases = 200
	}
	rng := rand.New(rand.NewSource(12))
	for c := 0; c < cases; c++ {
		xs := make([]float64, 1+rng.Intn(20))
		levels := 1 + rng.Intn(2*len(xs))
		for i := range xs {
			xs[i] = 0.1 + float64(rng.Intn(levels))*1e-3
		}
		checkBootstrap(t, xs, Options{
			Resamples:  1 + rng.Intn(1000),
			Seed:       rng.Int63(),
			Confidence: rng.Float64(),
		})
	}
	for _, n := range []int{257, 300} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(n / 2))
		}
		checkBootstrap(t, xs, Options{Resamples: 200, Seed: int64(n), Confidence: 0.9})
	}
	checkBootstrap(t, nil, Options{Resamples: 10, Confidence: 0.95})
}

// sink keeps benchmarked results alive.
var sink float64

// BenchmarkBootstrapCI times one band's bootstrap at the replay
// workload's shape (five samples, 1000 resamples) and at the gate's
// full default window, beside the sort-based reference.
func BenchmarkBootstrapCI(b *testing.B) {
	for _, n := range []int{5, 20} {
		rng := rand.New(rand.NewSource(int64(n)))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 0.1 + rng.Float64()*1e-2
		}
		o := Options{Resamples: 1000, Seed: 1, Confidence: 0.95}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lo, hi := bootstrapCI(xs, o)
				sink += hi - lo
			}
		})
		b.Run(fmt.Sprintf("n=%d/sort-reference", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lo, hi := sortBootstrapCI(xs, o)
				sink += hi - lo
			}
		})
	}
}
