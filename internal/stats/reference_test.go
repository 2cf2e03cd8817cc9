package stats

import (
	"math"
	"math/rand"
	"sort"
)

// sortBootstrapCI is the bootstrap as first written: it sorts every
// resample to take its median, then sorts the medians. It stays here
// as the reference bootstrapCI must match bit for bit.
func sortBootstrapCI(xs []float64, o Options) (lo, hi float64) {
	rng := rand.New(rand.NewSource(o.Seed))
	meds := make([]float64, o.Resamples)
	resample := make([]float64, len(xs))
	for i := range meds {
		for j := range resample {
			resample[j] = xs[rng.Intn(len(xs))]
		}
		meds[i] = medianInPlace(resample)
	}
	sort.Float64s(meds)
	alpha := (1 - o.Confidence) / 2
	return quantileSorted(meds, alpha), quantileSorted(meds, 1-alpha)
}

// quantileSorted returns the q-quantile of an ascending slice by
// linear interpolation between closest ranks. It rounds each product
// explicitly, as quantile does, so the two agree on platforms that
// would otherwise fuse the multiply-adds (on amd64 nothing fuses, and
// this is the original code's arithmetic bit for bit).
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := float64(q * float64(len(s)-1))
	i := int(math.Floor(pos))
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return float64(s[i]*(1-frac)) + float64(s[i+1]*frac)
}
