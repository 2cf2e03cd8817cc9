package store

import (
	"fmt"
	"hash/fnv"

	"simbench/internal/report"
	"simbench/internal/stats"
)

// StatGate configures the variance-aware regression gate: how much
// history a cell needs before its noise band is trusted, how the band
// is computed, and the fixed threshold that remains as fallback (too
// little history) and floor (a degenerate band — identical history —
// is widened to median±Threshold rather than flagging any nonzero
// delta). The zero value fills to usable defaults.
type StatGate struct {
	// Threshold is the relative slowdown the fallback/floor gate
	// tolerates; <=0 means 0.10.
	Threshold float64
	// MinHistory is the minimum number of measured historical samples
	// before a cell is gated statistically; cells with fewer fall back
	// to the fixed threshold. <=0 means 5.
	MinHistory int
	// Resamples is the bootstrap resample count; 0 means 1000,
	// negative disables the bootstrap.
	Resamples int
	// Seed seeds the deterministic bootstrap; each cell derives its
	// own stream from it, so bands are reproducible run to run.
	Seed int64
	// Widen multiplies the MAD-based spread margin; <=0 means 3.
	Widen float64
	// Window bounds each cell's noise model to its most recent fresh
	// samples: an accepted performance change would otherwise leave a
	// bimodal history whose inflated band hides real regressions
	// forever. Counted per cell in genuine measurements — cached-only
	// reruns and other tools' interleaved runs cannot push a cell's
	// real history out of the window. <=0 means 20 samples.
	Window int
}

func (g StatGate) fill() StatGate {
	if g.Threshold <= 0 {
		g.Threshold = 0.10
	}
	if g.MinHistory <= 0 {
		g.MinHistory = 5
	}
	switch {
	case g.Resamples == 0:
		g.Resamples = 1000
	case g.Resamples < 0:
		g.Resamples = 0
	}
	if g.Widen <= 0 {
		g.Widen = 3
	}
	if g.Window <= 0 {
		g.Window = 20
	}
	return g
}

// Pool bounds one cell's fresh-sample history (as built by Samples)
// to the gate's recency window — the one definition of "the samples
// the gate sees", shared by diff, table annotation and simbase show.
func (g StatGate) Pool(xs []float64) []float64 {
	g = g.fill()
	if len(xs) > g.Window {
		return xs[len(xs)-g.Window:]
	}
	return xs
}

// seedFor derives a per-cell bootstrap seed, so each cell is its own
// deterministic stream: reordering the matrix or gating a subset never
// moves another cell's band. A single-core cell hashes the same bytes
// it always has, so recorded bands keep their bits; a multi-core cell
// appends its core count and gets a stream of its own.
func (g StatGate) seedFor(c CellRef) int64 {
	id := fmt.Sprintf("%s|%s|%s|%d|%d", c.Arch, c.Benchmark, c.Engine, c.Iters, c.Repeats)
	if c.Cores > 1 {
		id += fmt.Sprintf("|%dc", c.Cores)
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	return g.Seed ^ int64(h.Sum64())
}

// Band summarizes one cell's samples under the gate's options, with
// the cell's own deterministic bootstrap stream. Unlike NoiseLookup it
// answers for any history length — simbase show uses it to print the
// model of a cell that is still too young to gate.
func (g StatGate) Band(c CellRef, xs []float64) *stats.Band {
	g = g.fill()
	b := stats.Summarize(xs, stats.Options{
		Resamples: g.Resamples,
		Seed:      g.seedFor(c),
		Widen:     g.Widen,
	})
	return &b
}

// CellName renders a record's cell the way diff output names cells:
// arch/benchmark/engine@iters, with an xN suffix for multi-repeat
// cells and an @Nc suffix above one guest core. simbase show matches
// its argument against this form.
func CellName(r report.Record) string {
	c := RefOfRecord(r)
	s := fmt.Sprintf("%s/%s/%s@%d", c.Arch, c.Benchmark, c.Engine, c.Iters)
	if c.Repeats > 1 {
		s += fmt.Sprintf("x%d", c.Repeats)
	}
	if c.Cores > 1 {
		s += fmt.Sprintf("@%dc", c.Cores)
	}
	return s
}

// FreshSample reports whether a record contributes to the noise
// model: a genuine measurement, not an error and not a cached replay —
// a cache hit re-records a measurement already pooled by the run that
// made it, and counting it again would collapse the band around
// whichever value happened to be cached (and false-flag drift toward
// it). show and the gate share this one predicate so they can never
// disagree about what counts as evidence.
func FreshSample(r report.Record) bool { return measured(r) && !r.Cached }

// Samples gathers each cell's fresh kernel-seconds history across
// runs (see FreshSample), keyed by RefOfRecord, in run order — so a
// cores sweep keeps one pool per core count.
func Samples(runs []RunRecord) map[CellRef][]float64 {
	out := make(map[CellRef][]float64)
	for _, rr := range runs {
		for _, c := range rr.Cells {
			if FreshSample(c) {
				ref := RefOfRecord(c)
				out[ref] = append(out[ref], c.KernelSeconds)
			}
		}
	}
	return out
}

// NoiseLookup returns a lazily-memoized per-record band lookup over
// the gate's windowed sample pool, the shape table renderers and JSON
// annotation want; records with fewer than MinHistory fresh samples
// return nil — a band from two points is not a noise model. Bands are
// computed on first request per cell, so a small matrix annotated
// against a large shared history (every nightly label, every scale)
// pays the bootstrap only for the cells it actually renders. Not safe
// for concurrent use.
func NoiseLookup(runs []RunRecord, g StatGate) func(report.Record) *stats.Band {
	g = g.fill()
	var samples map[CellRef][]float64
	memo := make(map[CellRef]*stats.Band)
	return func(r report.Record) *stats.Band {
		if samples == nil {
			samples = Samples(runs)
		}
		ref := RefOfRecord(r)
		if b, ok := memo[ref]; ok {
			return b
		}
		var b *stats.Band
		if xs := g.Pool(samples[ref]); len(xs) >= g.MinHistory {
			b = g.Band(ref, xs)
		}
		memo[ref] = b
		return b
	}
}

// Annotate stamps each record's Noise band from the lookup, leaving
// records without history untouched. A nil lookup is a no-op, so
// callers can pass a store-less pipeline straight through.
func Annotate(recs []report.Record, noise func(report.Record) *stats.Band) {
	if noise == nil {
		return
	}
	for i := range recs {
		recs[i].Noise = noise(recs[i])
	}
}
