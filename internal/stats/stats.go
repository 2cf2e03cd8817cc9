// Package stats is the per-cell noise model behind variance-aware
// regression gating: robust location and spread estimates (median,
// median absolute deviation) over a cell's measurement history, and a
// noise band combining a deterministic seeded-bootstrap confidence
// interval of the median with a MAD-scaled spread margin. A new
// measurement inside the band is indistinguishable from the cell's
// historical noise; one outside it is a real change — the statistical
// grounding the fixed -threshold gate lacks (noisy cells false-alarm,
// quiet cells hide small regressions).
//
// Everything here is deterministic: the bootstrap runs on a caller-
// seeded PRNG, so the same history and options always yield the same
// band — a hard requirement for reproducible CI gates and for testing
// the gate itself.
package stats

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
)

// MADScale converts a median absolute deviation into a consistent
// estimate of the standard deviation under normal noise (1/Φ⁻¹(3/4)).
// The gate's spread margin is Widen×MADScale×MAD, the robust analogue
// of "k sigma".
const MADScale = 1.4826

// Band is the noise model of one cell: how many historical samples it
// summarizes, the robust center and spread, and the [Lo, Hi] interval
// outside which a new measurement counts as a real change.
type Band struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	MAD    float64 `json:"mad"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
}

// Degenerate reports a band with no usable width — a single sample, or
// a history of identical values. A degenerate band cannot gate (any
// nonzero delta would flag); callers fall back to a fixed-threshold
// floor instead.
func (b Band) Degenerate() bool { return !(b.Hi > b.Lo) }

// HalfWidth returns the band's larger one-sided extent from the
// median, the "±" figure tables print next to a measurement.
func (b Band) HalfWidth() float64 {
	return math.Max(b.Hi-b.Median, b.Median-b.Lo)
}

// Verdict classifies a measurement against a band.
type Verdict int

const (
	Stable    Verdict = iota // inside the band: noise
	Regressed                // above Hi: slower than history explains
	Improved                 // below Lo: faster than history explains
)

func (v Verdict) String() string {
	switch v {
	case Regressed:
		return "regressed"
	case Improved:
		return "improved"
	}
	return "stable"
}

// Verdict classifies x against the band. Callers must not gate on a
// degenerate band (see Degenerate); this method still answers for one,
// treating only the exact historical value as stable.
func (b Band) Verdict(x float64) Verdict {
	switch {
	case x > b.Hi:
		return Regressed
	case x < b.Lo:
		return Improved
	}
	return Stable
}

// Options tune Summarize. The zero value is usable: no bootstrap, a
// 3×MADScale spread margin.
type Options struct {
	// Resamples is the bootstrap resample count for the confidence
	// interval of the median; 0 disables the bootstrap, leaving the
	// MAD margin alone (useful for exact-value tests).
	Resamples int
	// Seed seeds the bootstrap PRNG. Equal seeds give equal bands;
	// gates derive a per-cell seed so cells are independent streams.
	Seed int64
	// Confidence is the bootstrap interval's coverage; <=0 means 0.95.
	Confidence float64
	// Widen multiplies the MADScale-normalized MAD to form the spread
	// margin around the median; <=0 means 3 (the robust "3 sigma").
	Widen float64
}

func (o Options) fill() Options {
	if o.Confidence <= 0 {
		o.Confidence = 0.95
	}
	if o.Widen <= 0 {
		o.Widen = 3
	}
	return o
}

// Median returns the median of xs (mean of the central pair for even
// lengths), 0 for an empty input. xs is not modified.
func Median(xs []float64) float64 {
	return medianInPlace(append([]float64(nil), xs...))
}

// medianInPlace sorts s and returns its median — the allocation-free
// core for callers that own their slice.
func medianInPlace(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MAD returns the median absolute deviation of xs from its median —
// the robust spread statistic: a single outlier run moves it barely,
// where it would blow up a standard deviation. Returns 0 for fewer
// than two samples.
func MAD(xs []float64) float64 {
	return mad(xs, Median(xs))
}

// mad is MAD with the median already known, so Summarize computes the
// median of a history once, not three times.
func mad(xs []float64, m float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - m)
	}
	return medianInPlace(devs)
}

// Summarize computes the noise band of a measurement history: median,
// MAD, and [Lo, Hi] as the union of the median±Widen×MADScale×MAD
// margin and (when Resamples > 0 and there are at least two samples)
// the seeded-bootstrap percentile confidence interval of the median.
// The union, not the intersection: the MAD margin models per-run
// scatter, the bootstrap models uncertainty in the center estimate,
// and a gate must tolerate both before calling a change real.
//
// An empty history returns the zero Band; a single sample or an
// all-identical history returns a Degenerate band.
func Summarize(xs []float64, o Options) Band {
	o = o.fill()
	m := Median(xs)
	b := Band{N: len(xs), Median: m, MAD: mad(xs, m)}
	if b.N == 0 {
		return b
	}
	// The explicit conversions here and in quantile round each product
	// before it is added, so no platform fuses a multiply-add and every
	// host computes the same band bits.
	margin := float64(o.Widen * MADScale * b.MAD)
	b.Lo, b.Hi = b.Median-margin, b.Median+margin
	if o.Resamples > 0 && b.N >= 2 {
		lo, hi := bootstrapCI(xs, o)
		b.Lo = math.Min(b.Lo, lo)
		b.Hi = math.Max(b.Hi, hi)
	}
	return b
}

// bootstrapCI returns the percentile confidence interval of the median
// under resampling with replacement, on a PRNG seeded from o.Seed —
// fully deterministic for a given (history, options) pair.
//
// It counts ranks instead of sorting: xs is ordered once, each
// resample tallies its draws, and its median is read off the tallies
// as a (lower, upper) central-rank pair. Medians are counted per pair,
// so the percentiles come from cumulative counts over the few distinct
// medians instead of a sort of o.Resamples floats. Draws replay
// rand.Rand.Intn over the same source, so every result is
// bit-identical to sorting each resample (for any input without NaNs
// or a mix of signed zeros, which no order ranks).
func bootstrapCI(xs []float64, o Options) (lo, hi float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	// order lists xs's indices in ascending value order.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(xs[a], xs[b]) })

	// rand.Rand.Intn(n) for n < 2^31, inlined: mask a power of two,
	// otherwise reject the top partial range and reduce. The reduction
	// is v % n, computed exactly by multiplication (Lemire's fastmod).
	src := rand.NewSource(o.Seed)
	bound := int32(n)
	pow2 := bound&(bound-1) == 0
	limit := int32((1 << 31) - 1 - (1<<31)%uint32(bound))
	magic := ^uint64(0)/uint64(n) + 1

	// A resample's median sits at its central order statistics kLo and
	// kHi (equal for odd n). Medians are counted by their (lo, hi) rank
	// pair, keyed hi*n + lo: densely for the pools the gate windows
	// (20 samples by default), in a map beyond that.
	kLo, kHi := (n-1)/2, n/2
	tally := make([]int32, n) // draws per index of xs
	var dense []int32
	var sparse map[int]int32
	if n <= 256 {
		dense = make([]int32, n*n)
	} else {
		sparse = make(map[int]int32)
	}
	for i := 0; i < o.Resamples; i++ {
		for j := 0; j < n; j++ {
			v := int32(src.Int63() >> 32)
			if pow2 {
				v &= bound - 1
			} else {
				for v > limit {
					v = int32(src.Int63() >> 32)
				}
				q, _ := bits.Mul64(magic*uint64(v), uint64(n))
				v = int32(q)
			}
			tally[v]++
		}
		r, seen := 0, int(tally[order[0]])
		for seen <= kLo {
			r++
			seen += int(tally[order[r]])
		}
		rLo := r
		for seen <= kHi {
			r++
			seen += int(tally[order[r]])
		}
		if dense != nil {
			dense[r*n+rLo]++
		} else {
			sparse[r*n+rLo]++
		}
		clear(tally)
	}

	// The distinct medians in ascending order, with their counts.
	type median struct {
		v float64
		n int
	}
	var meds []median
	add := func(key int, c int32) {
		l, h := xs[order[key%n]], xs[order[key/n]]
		v := l
		if n%2 == 0 {
			v = (l + h) / 2
		}
		meds = append(meds, median{v, int(c)})
	}
	for key, c := range dense {
		if c > 0 {
			add(key, c)
		}
	}
	for key, c := range sparse {
		add(key, c)
	}
	slices.SortFunc(meds, func(a, b median) int { return cmp.Compare(a.v, b.v) })
	// at returns the k-th smallest of the o.Resamples medians.
	at := func(k int) float64 {
		for _, m := range meds {
			if k < m.n {
				return m.v
			}
			k -= m.n
		}
		return meds[len(meds)-1].v
	}
	alpha := (1 - o.Confidence) / 2
	return quantile(o.Resamples, alpha, at), quantile(o.Resamples, 1-alpha, at)
}

// quantile returns the q-quantile of n ascending values, the k-th of
// which is at(k), by linear interpolation between closest ranks.
func quantile(n int, q float64, at func(int) float64) float64 {
	if n == 0 {
		return 0
	}
	pos := float64(q * float64(n-1))
	i := int(math.Floor(pos))
	if i >= n-1 {
		return at(n - 1)
	}
	frac := pos - float64(i)
	return float64(at(i)*(1-frac)) + float64(at(i+1)*frac)
}
