package store

import (
	"fmt"
	"sort"

	"simbench/internal/report"
	"simbench/internal/stats"
)

// CellDiff is one cell compared between two runs.
type CellDiff struct {
	Benchmark string
	Engine    string
	Arch      string
	Iters     int64
	Repeats   int
	Cores     int

	// BaseSeconds and CurrentSeconds are the kernel times of the two
	// runs; Delta is CurrentSeconds/BaseSeconds - 1, so positive means
	// the current run is slower.
	BaseSeconds    float64
	CurrentSeconds float64
	Delta          float64

	// Noise is the cell's historical noise band when the statistical
	// gate judged it; nil under the fixed-threshold gate.
	Noise *stats.Band
	// Gate names the rule that judged the cell: "fixed", "stat",
	// "stat (floored)" for a degenerate band widened to the threshold
	// floor, "stat (drift)" for an in-band sample whose history median
	// has drifted beyond the threshold from the baseline, or
	// "fixed (history n=K)" when the cell's history was too short for
	// a statistical verdict.
	Gate string
}

// Cell names the cell the way the scheduler does, plus its scale and,
// above one guest core, its core count.
func (c CellDiff) Cell() string {
	s := fmt.Sprintf("%s/%s/%s@%d", c.Arch, c.Benchmark, c.Engine, c.Iters)
	if c.Cores > 1 {
		s += fmt.Sprintf("@%dc", c.Cores)
	}
	return s
}

// Diff is the cell-by-cell comparison of two runs.
type Diff struct {
	// Mode names the gate that produced the diff: "fixed" (every cell
	// judged by Threshold) or "stat" (cells with enough history judged
	// by their noise band, the rest by Threshold).
	Mode string
	// Threshold is the relative slowdown tolerated as noise by the
	// fixed gate — and, in stat mode, by its fallback and floor.
	Threshold float64
	// Regressions are common cells slower than Threshold allows,
	// worst first; Improvements are common cells faster by more than
	// Threshold, best first.
	Regressions  []CellDiff
	Improvements []CellDiff
	// Stable counts common cells within the threshold either way.
	Stable int
	// Broken names cells (by CellName) measured in the baseline but
	// errored (or unmeasured) in the current run — going from working
	// to broken must fail a regression gate, so they count towards
	// Regressed.
	Broken []string
	// OnlyBase and OnlyCurrent name cells without a measured
	// counterpart in the other run — absent from it, or (for
	// OnlyCurrent) errored in both runs; they are compared in neither
	// direction.
	OnlyBase    []string
	OnlyCurrent []string
}

// Regressed reports whether any cell regressed past the threshold or
// broke outright.
func (d Diff) Regressed() bool { return len(d.Regressions) > 0 || len(d.Broken) > 0 }

func measured(r report.Record) bool { return r.Error == "" && r.KernelSeconds > 0 }

// judgment is one gate's ruling on a matched, measured cell pair.
type judgment struct {
	verdict stats.Verdict
	noise   *stats.Band
	gate    string
}

// fixedJudge is the classic gate: the relative delta against the
// baseline, compared to a fixed threshold.
func fixedJudge(threshold float64, base, cur report.Record) judgment {
	j := judgment{gate: "fixed"}
	switch delta := cur.KernelSeconds/base.KernelSeconds - 1; {
	case delta > threshold:
		j.verdict = stats.Regressed
	case delta < -threshold:
		j.verdict = stats.Improved
	}
	return j
}

// DiffRuns compares two recorded runs cell by cell. Cells are matched
// by RefOfRecord — (arch, benchmark, engine, iters, repeats, cores),
// with engine the display name: "did my simulator get slower" compares
// like-named columns across time. A matched pair counts
// as regressed when the current kernel time exceeds the baseline by
// more than threshold (e.g. 0.10 = 10 % slower), and as improved when
// it undercuts it by more than threshold. A cell the baseline measured
// but the current run could not (errored or zero-time) is Broken —
// and fails the gate; errored cells with no measured twin are merely
// reported as unmatched.
func DiffRuns(base, current RunRecord, threshold float64) Diff {
	d := diffRuns(base, current, func(b, cur report.Record) judgment {
		return fixedJudge(threshold, b, cur)
	})
	d.Mode = "fixed"
	d.Threshold = threshold
	return d
}

// DiffRunsStat compares two recorded runs under the variance-aware
// gate: a matched cell with at least MinHistory fresh samples in the
// history window is judged by its noise band — flagged when the
// current measurement falls outside what the cell's own history
// explains — while short-history cells fall back to the fixed
// threshold, and a degenerate band (identical history) is floored to
// median±Threshold. The baseline still anchors the verdict: because
// the band follows recent history, a cell whose level since the
// baseline — the median of at least driftMinSamples fresh samples
// recorded after it — has moved beyond Threshold from the baseline is
// in drift: its band is centred on the wrong level, so the sample is
// judged against the baseline and threshold directly (otherwise a
// +3 %-per-run creep would re-center the band each run and never fail
// CI, and a drifted band would grade a still-regressed sample
// "improved"). Drift is measured only from runs after the baseline,
// because a baseline that is an outlier of the history before it has
// not drifted: judging against it would grade the sample on one noisy
// measurement instead of the band. history should exclude the current
// run itself, or the measurement under test would vouch for its own
// normality.
//
// Matching, Broken, OnlyBase and OnlyCurrent semantics are identical
// to DiffRuns: statistics refine the verdict on comparable cells, not
// what is comparable.
func DiffRunsStat(base, current RunRecord, history []RunRecord, g StatGate) Diff {
	g = g.fill()
	samples := Samples(history)
	since := Samples(recordedAfter(base, history))
	d := diffRuns(base, current, func(b, cur report.Record) judgment {
		ref := RefOfRecord(cur)
		xs := g.Pool(samples[ref])
		if len(xs) < g.MinHistory {
			j := fixedJudge(g.Threshold, b, cur)
			j.gate = fmt.Sprintf("fixed (history n=%d)", len(xs))
			return j
		}
		band := g.Band(ref, xs)
		gate := "stat"
		if band.Degenerate() {
			// The floor: a history with zero spread would flag any
			// nonzero delta; the fixed threshold bounds how strict the
			// statistical gate may get.
			band.Lo = band.Median * (1 - g.Threshold)
			band.Hi = band.Median * (1 + g.Threshold)
			gate = "stat (floored)"
		}
		j := judgment{noise: band, gate: gate}
		// The band re-centers on recent history, so on its own it would
		// let a slow drift creep past the pinned baseline one in-band
		// step at a time — and, once drifted, would grade samples
		// relative to the drifted level (a 115 ms sample under a
		// 125 ms-median band reads "improved" even at +15 % over a
		// 100 ms baseline). The baseline stays the anchor: while the
		// cell's central tendency sits beyond the threshold from the
		// baseline, the band is centred on the wrong level, so the
		// sample is judged the classic way — against the baseline and
		// threshold directly. That flags continuing drift, and lets a
		// just-fixed cell go green immediately instead of failing until
		// the stale median ages out of the window. Only an anchored
		// band grades samples statistically.
		if xs := g.Pool(since[ref]); len(xs) >= driftMinSamples {
			if drift := stats.Median(xs)/b.KernelSeconds - 1; drift > g.Threshold || drift < -g.Threshold {
				j = fixedJudge(g.Threshold, b, cur)
				j.noise = band
				j.gate = "stat (drift)"
				return j
			}
		}
		j.verdict = band.Verdict(cur.KernelSeconds)
		return j
	})
	d.Mode = "stat"
	d.Threshold = g.Threshold
	return d
}

// driftMinSamples is how many fresh samples recorded after the
// baseline DiffRunsStat needs before it judges a cell in drift: the
// median of three is the smallest level one outlier cannot set.
const driftMinSamples = 3

// recordedAfter returns the runs of history recorded after base: those
// that follow it in history or, when base is not among them, those
// stamped later.
func recordedAfter(base RunRecord, history []RunRecord) []RunRecord {
	for i := len(history) - 1; i >= 0; i-- {
		if rr := history[i]; rr.Time.Equal(base.Time) && rr.Label == base.Label && rr.Host == base.Host {
			return history[i+1:]
		}
	}
	var after []RunRecord
	for _, rr := range history {
		if rr.Time.After(base.Time) {
			after = append(after, rr)
		}
	}
	return after
}

// diffRuns matches cells between two runs and applies judge to each
// matched, measured pair.
func diffRuns(base, current RunRecord, judge func(base, cur report.Record) judgment) Diff {
	var d Diff
	baseByRef := make(map[CellRef]report.Record, len(base.Cells))
	var baseUnmeasured []report.Record
	for _, r := range base.Cells {
		if measured(r) {
			baseByRef[RefOfRecord(r)] = r
		} else {
			baseUnmeasured = append(baseUnmeasured, r)
		}
	}
	curRefs := make(map[CellRef]bool, len(current.Cells))
	for _, r := range current.Cells {
		curRefs[RefOfRecord(r)] = true
	}
	matched := make(map[CellRef]bool, len(current.Cells))
	for _, cur := range current.Cells {
		ref := RefOfRecord(cur)
		b, ok := baseByRef[ref]
		if !measured(cur) {
			if ok {
				// The baseline measured this cell; the current run
				// could not.
				matched[ref] = true
				d.Broken = append(d.Broken, CellName(cur))
			} else {
				d.OnlyCurrent = append(d.OnlyCurrent, CellName(cur))
			}
			continue
		}
		if !ok {
			d.OnlyCurrent = append(d.OnlyCurrent, CellName(cur))
			continue
		}
		matched[ref] = true
		j := judge(b, cur)
		cd := CellDiff{
			Benchmark:      cur.Benchmark,
			Engine:         cur.Engine,
			Arch:           cur.Arch,
			Iters:          cur.Iters,
			Repeats:        cur.Repeats,
			Cores:          ref.Cores,
			BaseSeconds:    b.KernelSeconds,
			CurrentSeconds: cur.KernelSeconds,
			Delta:          cur.KernelSeconds/b.KernelSeconds - 1,
			Noise:          j.noise,
			Gate:           j.gate,
		}
		switch j.verdict {
		case stats.Regressed:
			d.Regressions = append(d.Regressions, cd)
		case stats.Improved:
			d.Improvements = append(d.Improvements, cd)
		default:
			d.Stable++
		}
	}
	for ref, r := range baseByRef {
		if !matched[ref] {
			d.OnlyBase = append(d.OnlyBase, CellName(r))
		}
	}
	// An errored baseline cell is OnlyBase only when the current run
	// has no such cell at all; if it does, the current-run side
	// already reported it once (as a measurement or OnlyCurrent).
	for _, r := range baseUnmeasured {
		if !curRefs[RefOfRecord(r)] {
			d.OnlyBase = append(d.OnlyBase, CellName(r))
		}
	}
	sort.Slice(d.Regressions, func(i, j int) bool { return d.Regressions[i].Delta > d.Regressions[j].Delta })
	sort.Slice(d.Improvements, func(i, j int) bool { return d.Improvements[i].Delta < d.Improvements[j].Delta })
	sort.Strings(d.Broken)
	sort.Strings(d.OnlyBase)
	sort.Strings(d.OnlyCurrent)
	return d
}
