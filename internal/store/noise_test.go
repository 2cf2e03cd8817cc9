package store

import (
	"reflect"
	"testing"
	"time"

	"simbench/internal/report"
	"simbench/internal/stats"
)

// ms builds a fabricated duration from fractional milliseconds.
func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// gateHistory fabricates the canonical three-cell gate scenario:
// cell 0 is noisy but stable (±15 % scatter), cell 1 is quiet (±1 %
// scatter), cell 2 has a degenerate all-identical history. Returns the
// six-run history; run 0 doubles as the baseline.
func gateHistory() []RunRecord {
	noisy := []float64{100, 115, 85, 112, 90, 108}
	quiet := []float64{100, 101, 99, 100.5, 99.5, 100}
	var runs []RunRecord
	for r := range noisy {
		r := r
		runs = append(runs, NewRun("simbench", fabricateRun(3, func(i int) time.Duration {
			switch i {
			case 0:
				return ms(noisy[r])
			case 1:
				return ms(quiet[r])
			default:
				return ms(100)
			}
		})))
	}
	return runs
}

// currentRun fabricates the run under test: cell 0 at +12 % of the
// baseline (inside its own noise), cell 1 at +5 % (outside its noise,
// inside the fixed threshold), cell 2 at the given value.
func currentRun(cell2 float64) RunRecord {
	return NewRun("simbench", fabricateRun(3, func(i int) time.Duration {
		switch i {
		case 0:
			return ms(112)
		case 1:
			return ms(105)
		default:
			return ms(cell2)
		}
	}))
}

func TestSamples(t *testing.T) {
	runs := gateHistory()
	// An errored cell contributes no sample.
	runs[5].Cells[0].Error = "guest aborted"
	runs[5].Cells[0].KernelSeconds = 0
	samples := Samples(runs)
	if len(samples) != 3 {
		t.Fatalf("cells = %d, want 3", len(samples))
	}
	for id, xs := range samples {
		want := 6
		if id.Benchmark == "synthetic.0" {
			want = 5
		}
		if len(xs) != want {
			t.Errorf("%s: %d samples, want %d", id, len(xs), want)
		}
	}
}

// TestSamplesExcludeCachedReplays: re-running an unchanged binary
// against the cache appends replayed cells to history; those must not
// re-enter the sample pool, or the band would collapse around (and the
// drift check re-center on) whichever measurement happened to be
// cached.
func TestSamplesExcludeCachedReplays(t *testing.T) {
	runs := gateHistory()
	// Four replay runs of the last measurement, as a -cache-dir rerun
	// would record them.
	for i := 0; i < 4; i++ {
		replay := NewRun("simbench", fabricateRun(3, func(i int) time.Duration {
			if i == 0 {
				return ms(112)
			}
			return ms(100)
		}))
		for c := range replay.Cells {
			replay.Cells[c].Cached = true
		}
		runs = append(runs, replay)
	}
	samples := Samples(runs)
	for id, xs := range samples {
		if len(xs) != 6 {
			t.Errorf("%s: %d samples, want 6 (replays must not pool)", id, len(xs))
		}
	}
	// Consequently the gate still reads the real history: a current
	// run at the cells' historical norms stays clean — no drift false
	// alarm from the replayed 0.112s pile-up.
	cur := NewRun("simbench", fabricateRun(3, func(i int) time.Duration {
		if i == 0 {
			return ms(112)
		}
		return ms(100)
	}))
	d := DiffRunsStat(runs[0], cur, runs, StatGate{Threshold: 0.10, Seed: 1})
	if len(d.Regressions) != 0 || d.Stable != 3 {
		t.Errorf("replays skewed the gate: %+v", d)
	}
}

func TestNoiseLookupMinHistory(t *testing.T) {
	runs := gateHistory()
	look := NoiseLookup(runs, StatGate{})
	for _, c := range runs[0].Cells {
		b := look(c)
		if b == nil || b.N != 6 {
			t.Errorf("%s: band = %+v, want n=6", CellName(c), b)
		}
	}
	// With only four runs, no cell clears the default MinHistory of 5.
	short := NoiseLookup(runs[:4], StatGate{})
	for _, c := range runs[0].Cells {
		if b := short(c); b != nil {
			t.Errorf("short history produced a band: %+v", b)
		}
	}
	// The noisy cell's band is real; unknown cells answer nil (twice,
	// exercising the memo).
	if b := look(runs[0].Cells[0]); b == nil || b.Degenerate() {
		t.Errorf("lookup on noisy cell = %+v", b)
	}
	for i := 0; i < 2; i++ {
		if b := look(report.Record{Benchmark: "never.ran"}); b != nil {
			t.Errorf("lookup on unknown cell = %+v", b)
		}
	}
}

func TestAnnotate(t *testing.T) {
	runs := gateHistory()
	recs := append([]report.Record(nil), runs[0].Cells...)
	Annotate(recs, nil) // nil lookup is a no-op
	for _, r := range recs {
		if r.Noise != nil {
			t.Fatalf("nil lookup annotated: %+v", r)
		}
	}
	Annotate(recs, NoiseLookup(runs, StatGate{}))
	for _, r := range recs {
		if r.Noise == nil || r.Noise.N != 6 {
			t.Errorf("record not annotated: %+v", r)
		}
	}
}

// TestDiffRunsStatGate is the gate's reason to exist, in one test: the
// statistical gate passes a noisy-but-stable cell the fixed threshold
// false-alarms on, and flags a quiet cell's small regression the fixed
// threshold misses.
func TestDiffRunsStatGate(t *testing.T) {
	history := gateHistory()
	base, cur := history[0], currentRun(105)
	g := StatGate{Threshold: 0.10, Seed: 1}

	// The fixed gate gets both calls wrong: cell 0 (+12 %) flagged
	// though its history scatters ±15 %, cell 1 (+5 %) passed though
	// its history never strays past ±1 %.
	fixed := DiffRuns(base, cur, 0.10)
	if len(fixed.Regressions) != 1 || fixed.Regressions[0].Benchmark != "synthetic.0" {
		t.Fatalf("fixed gate regressions = %+v", fixed.Regressions)
	}

	d := DiffRunsStat(base, cur, history, g)
	if d.Mode != "stat" {
		t.Errorf("mode = %q", d.Mode)
	}
	if len(d.Regressions) != 1 || d.Regressions[0].Benchmark != "synthetic.1" {
		t.Fatalf("stat gate regressions = %+v", d.Regressions)
	}
	r := d.Regressions[0]
	if r.Gate != "stat" || r.Noise == nil {
		t.Errorf("regression judged by %q, noise %+v", r.Gate, r.Noise)
	}
	if r.Noise.Hi >= 0.105 || r.Noise.N != 6 {
		t.Errorf("quiet cell band = %+v, want Hi < 0.105", r.Noise)
	}
	// Cells 0 and 2 are stable: the noisy cell inside its band, the
	// degenerate cell inside the threshold floor.
	if d.Stable != 2 || len(d.Improvements) != 0 || d.Regressed() != true {
		t.Errorf("diff = %+v", d)
	}

	// Determinism: the same inputs give the identical diff, bands and
	// all.
	if d2 := DiffRunsStat(base, cur, history, g); !reflect.DeepEqual(d, d2) {
		t.Errorf("stat diff not deterministic:\n%+v\n%+v", d, d2)
	}
}

// TestDiffRunsStatFloor: a degenerate (all-identical) history must not
// flag every nonzero delta — the fixed threshold floors the band — but
// a delta past the floor still flags.
func TestDiffRunsStatFloor(t *testing.T) {
	history := gateHistory()
	g := StatGate{Threshold: 0.10, Seed: 1}

	d := DiffRunsStat(history[0], currentRun(115), history, g)
	var floored *CellDiff
	for i := range d.Regressions {
		if d.Regressions[i].Benchmark == "synthetic.2" {
			floored = &d.Regressions[i]
		}
	}
	if floored == nil {
		t.Fatalf("degenerate cell at +15%% not flagged: %+v", d.Regressions)
	}
	if floored.Gate != "stat (floored)" || floored.Noise == nil {
		t.Errorf("floored cell gate = %q, noise %+v", floored.Gate, floored.Noise)
	}
	if lo, hi := floored.Noise.Lo, floored.Noise.Hi; lo > 0.0901 || lo < 0.0899 || hi > 0.1101 || hi < 0.1099 {
		t.Errorf("floored band = [%v, %v], want ~[0.090, 0.110]", lo, hi)
	}
}

// TestDiffRunsStatDrift: a slow creep that stays inside the (re-
// centering) band every run must still fail against the pinned
// baseline once the history median has drifted beyond the threshold —
// the band answers "is this sample normal lately", the baseline
// answers "lately is not what I signed off on".
func TestDiffRunsStatDrift(t *testing.T) {
	// Cell 0 drifts +10 ms per run; cells 1 and 2 hold still.
	drift := []float64{100, 110, 120, 130, 140}
	var history []RunRecord
	for r := range drift {
		r := r
		history = append(history, NewRun("simbench", fabricateRun(3, func(i int) time.Duration {
			if i == 0 {
				return ms(drift[r])
			}
			return ms(100)
		})))
	}
	// The new sample continues the creep: inside the band around the
	// drifted median (0.12 ± 3·1.4826·0.01 ≈ [0.075, 0.165]), +50 %
	// over the baseline.
	cur := NewRun("simbench", fabricateRun(3, func(i int) time.Duration {
		if i == 0 {
			return ms(150)
		}
		return ms(100)
	}))
	d := DiffRunsStat(history[0], cur, history, StatGate{Threshold: 0.10, Seed: 1})
	if len(d.Regressions) != 1 || d.Regressions[0].Benchmark != "synthetic.0" {
		t.Fatalf("drift not flagged: %+v", d.Regressions)
	}
	r := d.Regressions[0]
	if r.Gate != "stat (drift)" || r.Noise == nil {
		t.Errorf("drift judged by %q, noise %+v", r.Gate, r.Noise)
	}
	if r.Noise.Verdict(r.CurrentSeconds) != stats.Stable {
		t.Errorf("drift sample should be inside the band: %+v vs %+v", r.CurrentSeconds, r.Noise)
	}
	if d.Stable != 2 {
		t.Errorf("stable = %d, want 2", d.Stable)
	}

	// The anchor overrides the band in both directions. A sample
	// *below* the drifted band is still +15 % over the baseline: the
	// band alone would call it improved; the anchor calls it what CI
	// must see, a regression.
	cur2 := NewRun("simbench", fabricateRun(3, func(i int) time.Duration {
		if i == 0 {
			return ms(115)
		}
		return ms(100)
	}))
	d2 := DiffRunsStat(history[0], cur2, history, StatGate{Threshold: 0.10, Seed: 1})
	if len(d2.Regressions) != 1 || d2.Regressions[0].Gate != "stat (drift)" || len(d2.Improvements) != 0 {
		t.Errorf("below-band sample over a drifted history not flagged: %+v", d2)
	}

	// And a just-fixed cell goes green immediately: the median is
	// still drifted, but today's sample sits at the baseline, so CI
	// must not stay red until the stale median ages out.
	cur3 := NewRun("simbench", fabricateRun(3, func(int) time.Duration { return ms(100) }))
	d3 := DiffRunsStat(history[0], cur3, history, StatGate{Threshold: 0.10, Seed: 1})
	if d3.Regressed() || d3.Stable != 3 {
		t.Errorf("recovered cell still failing: %+v", d3)
	}
}

// TestDiffRunsStatOutlierBaseline: a baseline that is an outlier of
// the history before it has not drifted. Six quiet runs, the last one
// 30 % fast and saved as the baseline; a current run back at the
// cell's norm sits inside the band and must be stable, not "+43 %
// against the baseline".
func TestDiffRunsStatOutlierBaseline(t *testing.T) {
	levels := []float64{100, 102, 98, 101, 99, 70}
	var history []RunRecord
	for r := range levels {
		r := r
		history = append(history, NewRun("simbench", fabricateRun(1, func(int) time.Duration { return ms(levels[r]) })))
	}
	base := history[len(history)-1]
	g := StatGate{Threshold: 0.10, Seed: 1}
	d := DiffRunsStat(base, NewRun("simbench", fabricateRun(1, func(int) time.Duration { return ms(100) })), history, g)
	if d.Regressed() || d.Stable != 1 {
		t.Errorf("sample at the norm judged against an outlier baseline: %+v", d)
	}
	// A sample outside the band still flags.
	if d := DiffRunsStat(base, NewRun("simbench", fabricateRun(1, func(int) time.Duration { return ms(130) })), history, g); !d.Regressed() || d.Regressions[0].Gate != "stat" {
		t.Errorf("sample above the band not flagged by the band: %+v", d)
	}
}

// TestDiffRunsStatDriftDown: the mirror case — history improved well
// past the baseline, and a sample popping back up to the baseline
// level breaches the (low) band. That cell is no worse than what was
// signed off, so the anchor keeps it stable instead of false-alarming.
func TestDiffRunsStatDriftDown(t *testing.T) {
	improved := []float64{100, 82, 80, 81, 80, 79}
	var history []RunRecord
	for r := range improved {
		r := r
		history = append(history, NewRun("simbench", fabricateRun(3, func(i int) time.Duration {
			if i == 0 {
				return ms(improved[r])
			}
			return ms(100)
		})))
	}
	cur := NewRun("simbench", fabricateRun(3, func(int) time.Duration { return ms(100) }))
	g := StatGate{Threshold: 0.10, Seed: 1}
	d := DiffRunsStat(history[0], cur, history, g)
	if d.Regressed() {
		t.Errorf("baseline-level sample flagged as regression over improved history: %+v", d.Regressions)
	}
	if d.Stable != 3 || len(d.Improvements) != 0 {
		t.Errorf("baseline-level sample should be stable vs the anchor: %+v", d)
	}
	// Sanity of the scenario: the sample really does breach the tight
	// improved band — only the anchor keeps it from false-alarming.
	samples := Samples(history)
	for id, xs := range samples {
		if id.Benchmark == "synthetic.0" {
			if b := g.Band(id, xs); b.Verdict(0.100) != stats.Regressed {
				t.Errorf("scenario too loose, band %+v does not exclude the baseline sample", b)
			}
		}
	}
	// A sample that is genuinely worse than the baseline allows still
	// flags, improved history or not.
	bad := NewRun("simbench", fabricateRun(3, func(i int) time.Duration {
		if i == 0 {
			return ms(115)
		}
		return ms(100)
	}))
	if db := DiffRunsStat(history[0], bad, history, g); !db.Regressed() {
		t.Errorf("+15%% over baseline passed under an improved history: %+v", db)
	}
}

// TestStatGateWindow: the noise model only sees the most recent
// Window runs, so an accepted performance change ages out instead of
// leaving a bimodal, permanently inflated band.
func TestStatGateWindow(t *testing.T) {
	// Ten runs: five at the old 100 ms level, five at the accepted new
	// 130 ms level (with a little spread so the band is not floored).
	level := []float64{100, 100, 100, 100, 100, 130, 131, 129, 130, 130.5}
	var history []RunRecord
	for r := range level {
		r := r
		history = append(history, NewRun("simbench", fabricateRun(1, func(int) time.Duration {
			return ms(level[r])
		})))
	}
	g := StatGate{Threshold: 0.10, Seed: 1, Window: 5}
	b := NoiseLookup(history, g)(history[0].Cells[0])
	if b == nil || b.N != 5 || b.Median < 0.129 || b.Median > 0.131 {
		t.Fatalf("windowed band = %+v, want n=5 centred on the new level", b)
	}
	// The unwindowed pool would be bimodal: MAD spans the level
	// change and the band swallows both levels.
	if b.MAD > 0.005 {
		t.Errorf("windowed MAD = %v, want tight spread at the new level", b.MAD)
	}

	// The window counts fresh samples per cell, not run records:
	// interleaved cached-only reruns (CI retriggers of an unchanged
	// binary) must not push the cell's genuine history out of the
	// window and demote the gate to its fallback.
	for i := 0; i < 10; i++ {
		replay := NewRun("simbench", fabricateRun(1, func(int) time.Duration { return ms(130) }))
		replay.Cells[0].Cached = true
		history = append(history, replay)
	}
	b2 := NoiseLookup(history, g)(history[0].Cells[0])
	if b2 == nil || b2.N != 5 {
		t.Errorf("cached reruns evicted the fresh window: %+v", b2)
	}
}

// TestDiffRunsStatFallback: cells without enough history are judged by
// the fixed threshold, and say so.
func TestDiffRunsStatFallback(t *testing.T) {
	history := gateHistory()[:3]
	d := DiffRunsStat(history[0], currentRun(100), history, StatGate{Threshold: 0.10, Seed: 1})
	if len(d.Regressions) != 1 || d.Regressions[0].Benchmark != "synthetic.0" {
		t.Fatalf("fallback regressions = %+v", d.Regressions)
	}
	r := d.Regressions[0]
	if r.Gate != "fixed (history n=3)" || r.Noise != nil {
		t.Errorf("fallback gate = %q, noise %+v", r.Gate, r.Noise)
	}
}

func TestCellNames(t *testing.T) {
	rec := report.Record{Benchmark: "mem.hot", Engine: "interp", Arch: "arm", Iters: 64, Repeats: 1}
	if got := CellName(rec); got != "arm/mem.hot/interp@64" {
		t.Errorf("CellName = %q", got)
	}
	rec.Repeats = 3
	if got := CellName(rec); got != "arm/mem.hot/interp@64x3" {
		t.Errorf("CellName with repeats = %q", got)
	}
	rec.Cores = 4
	if got := CellName(rec); got != "arm/mem.hot/interp@64x3@4c" {
		t.Errorf("CellName with cores = %q", got)
	}
	rec.Cores = 1
	if got := CellName(rec); got != "arm/mem.hot/interp@64x3" {
		t.Errorf("CellName names the single core: %q", got)
	}
}

// coresRun is one run of a 1/2/4-core sweep of one benchmark: the
// same coordinates at every core count, the kernel time halving per
// doubling plus a per-run wobble.
func coresRun(wobble float64) RunRecord {
	rr := RunRecord{Label: "simbench", Host: hostID()}
	for _, cores := range []int{1, 2, 4} {
		rec := report.Record{Benchmark: "smp.pingpong", Engine: "interp", Arch: "arm", Iters: 64, Repeats: 1,
			KernelSeconds: (0.1 + wobble) / float64(cores)}
		if cores > 1 {
			rec.Cores = cores
		}
		rr.Cells = append(rr.Cells, rec)
	}
	return rr
}

// TestDiffAndNoisePerCoreCount: the cores axis is part of a cell's
// identity for diffs and noise bands alike. Diffing a sweep against
// itself changes nothing, and each core count keeps its own pool and
// its own bootstrap stream.
func TestDiffAndNoisePerCoreCount(t *testing.T) {
	var history []RunRecord
	for _, w := range []float64{0, 0.004, -0.003, 0.002, -0.001, 0.003} {
		history = append(history, coresRun(w))
	}
	run := coresRun(0.001)
	for _, d := range []Diff{
		DiffRuns(run, run, 0.10),
		DiffRunsStat(run, run, history, StatGate{Seed: 1}),
	} {
		if d.Stable != 3 || d.Regressed() || len(d.Improvements) != 0 || len(d.OnlyBase) != 0 || len(d.OnlyCurrent) != 0 {
			t.Errorf("%s diff of identical 1/2/4-core runs is not clean: %+v", d.Mode, d)
		}
	}

	samples := Samples(history)
	if len(samples) != 3 {
		t.Fatalf("pools = %v, want one per core count", samples)
	}
	look := NoiseLookup(history, StatGate{})
	seeds := map[int64]bool{}
	for _, c := range run.Cells {
		ref := RefOfRecord(c)
		if xs := samples[ref]; len(xs) != len(history) {
			t.Errorf("%s: %d samples, want %d", ref, len(xs), len(history))
		}
		b := look(c)
		if b == nil || b.N != len(history) {
			t.Fatalf("%s: band %+v", ref, b)
		}
		if want := 0.1 / float64(ref.Cores); b.Median < want*0.95 || b.Median > want*1.05 {
			t.Errorf("%s: band median %v, want about %v (pooled across core counts?)", ref, b.Median, want)
		}
		seeds[StatGate{}.seedFor(ref)] = true
	}
	if len(seeds) != 3 {
		t.Errorf("core counts share a bootstrap stream: %d distinct seeds", len(seeds))
	}
}
