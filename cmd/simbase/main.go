// Command simbase manages the run history and baselines of a simbench
// result cache (-cache-dir, as written by simbench, simsweep and
// simreport): it saves a named baseline from the recorded history,
// lists history and baselines, diffs the latest run against a baseline
// with a nonzero exit status on regression for CI, inspects one cell's
// measurement history with its noise statistics, and garbage-collects
// blobs no recent run references.
//
// Two regression gates are available. The fixed gate (-gate=fixed,
// the default) flags any cell whose kernel time moved more than
// -threshold relative to the baseline. The statistical gate
// (-gate=stat) models each cell's noise from its run history — median,
// MAD, and a deterministic bootstrap confidence interval — and flags a
// cell only when the new measurement falls outside that noise band:
// noisy cells stop false-alarming, quiet cells catch regressions well
// under the fixed threshold. The fixed -threshold remains as fallback
// (cells with fewer than -min-history samples) and floor (a
// zero-spread history is widened to median±threshold).
//
// Usage:
//
//	simbase -cache-dir .simcache list
//	simbase -cache-dir .simcache save nightly
//	simbase -cache-dir .simcache -threshold 0.15 diff nightly
//	simbase -cache-dir .simcache -gate=stat diff nightly
//	simbase -cache-dir .simcache show mem.hot
//	simbase -cache-dir .simcache -keep-runs 10 gc
//	simbase -remote http://ci-cache:8347 diff nightly   # fleet store
//
// With -remote, history and baselines are read from and written to a
// simstored server — the fleet-wide view every host appends to —
// instead of a local cache directory (gc still operates on the local
// -cache-dir only).
//
// Exit status: 0 on success (diff: no regression), 1 when diff finds
// a regression, 2 on usage or I/O errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"simbench/internal/report"
	"simbench/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(fs *flag.FlagSet, stderr io.Writer) {
	fmt.Fprintln(stderr, "usage: simbase (-cache-dir DIR | -remote URL) [flags] list | save NAME | diff NAME | show CELL | gc")
	fs.SetOutput(stderr)
	fs.PrintDefaults()
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbase", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cacheDir   = fs.String("cache-dir", "", "result cache directory (as passed to simbench/simsweep/simreport)")
		remote     = fs.String("remote", "", "simstored server URL: history and baselines are read from and written to the fleet store instead of the local cache (gc still needs -cache-dir)")
		remoteTok  = fs.String("remote-token", os.Getenv("SIMBENCH_REMOTE_TOKEN"), "bearer token for a -remote server started with -token (default $SIMBENCH_REMOTE_TOKEN)")
		threshold  = fs.Float64("threshold", 0.10, "relative kernel-time slowdown tolerated as noise by the fixed gate — and by the stat gate's fallback and floor (0.10 = 10%)")
		label      = fs.String("label", "", "restrict history to runs with this label (e.g. fig7, simbench)")
		gate       = fs.String("gate", "fixed", "regression gate for diff: fixed (threshold) or stat (per-cell noise band from history)")
		minHistory = fs.Int("min-history", 5, "stat gate: minimum historical samples before a cell is judged by its noise band instead of the threshold")
		resamples  = fs.Int("resamples", 1000, "stat gate: bootstrap resamples behind each cell's confidence interval (-1 disables the bootstrap)")
		window     = fs.Int("window", 20, "stat gate: most recent fresh measurements per cell the noise model considers; older samples age out so accepted performance changes stop inflating the band")
		seed       = fs.Int64("seed", 0, "stat gate: bootstrap seed; equal seeds reproduce identical bands (0 is the default stream simbench table annotations use)")
		keepRuns   = fs.Int("keep-runs", 10, "gc: keep blobs referenced by this many most-recent runs (baselines always pin theirs)")
		dryRun     = fs.Bool("dry-run", false, "gc: report what would be pruned without deleting anything")
	)
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cacheDir == "" && *remote == "" {
		fmt.Fprintln(stderr, "simbase: -cache-dir or -remote is required")
		return 2
	}
	if *gate != "fixed" && *gate != "stat" {
		fmt.Fprintf(stderr, "simbase: unknown -gate %q (want fixed or stat)\n", *gate)
		return 2
	}
	// Reject values the gate would silently replace with its defaults:
	// a CLI that reads "-threshold 0" as "10%" is lying to its caller.
	switch {
	case *threshold <= 0:
		fmt.Fprintln(stderr, "simbase: -threshold must be positive")
		return 2
	case *minHistory < 1:
		fmt.Fprintln(stderr, "simbase: -min-history must be at least 1")
		return 2
	case *resamples == 0:
		fmt.Fprintln(stderr, "simbase: -resamples 0 is ambiguous; use -1 to disable the bootstrap")
		return 2
	case *window < 1:
		fmt.Fprintln(stderr, "simbase: -window must be at least 1")
		return 2
	case *window < *minHistory:
		// The pool never holds more than -window samples, so a window
		// below -min-history would pin every cell on the fixed
		// fallback — silently disabling the gate the user asked for.
		fmt.Fprintf(stderr, "simbase: -window %d is below -min-history %d; the statistical gate could never engage\n", *window, *minHistory)
		return 2
	case *keepRuns < 1:
		fmt.Fprintln(stderr, "simbase: -keep-runs must be at least 1")
		return 2
	}
	// simbase only inspects an existing store; opening one would
	// create the directory and mask a mistyped -cache-dir.
	if *cacheDir != "" {
		if _, err := os.Stat(*cacheDir); err != nil {
			fmt.Fprintf(stderr, "simbase: no result cache at %s: %v\n", *cacheDir, err)
			return 2
		}
	}
	st, err := store.OpenTiered(*cacheDir, *remote, store.WithToken(*remoteTok))
	if err != nil {
		fmt.Fprintln(stderr, "simbase:", err)
		return 2
	}
	if *remote != "" {
		defer st.Close()
	}
	sg := store.StatGate{
		Threshold:  *threshold,
		MinHistory: *minHistory,
		Resamples:  *resamples,
		Seed:       *seed,
		Window:     *window,
	}

	switch verb, name := fs.Arg(0), fs.Arg(1); verb {
	case "list":
		if err := list(stdout, st); err != nil {
			fmt.Fprintln(stderr, "simbase:", err)
			return 2
		}
		return 0
	case "save":
		if name == "" {
			fmt.Fprintln(stderr, "simbase: save needs a baseline name")
			return 2
		}
		if err := save(stdout, st, name, *label); err != nil {
			fmt.Fprintln(stderr, "simbase:", err)
			return 2
		}
		return 0
	case "diff":
		if name == "" {
			fmt.Fprintln(stderr, "simbase: diff needs a baseline name")
			return 2
		}
		regressed, err := diff(stdout, st, name, *label, *gate, sg)
		if err != nil {
			fmt.Fprintln(stderr, "simbase:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	case "show":
		if name == "" {
			fmt.Fprintln(stderr, "simbase: show needs a cell name (or substring), e.g. arm/mem.hot/interp@64")
			return 2
		}
		if err := show(stdout, st, name, *label, sg); err != nil {
			fmt.Fprintln(stderr, "simbase:", err)
			return 2
		}
		return 0
	case "gc":
		stats, err := st.GC(*keepRuns, *dryRun)
		if err != nil {
			fmt.Fprintln(stderr, "simbase:", err)
			return 2
		}
		fmt.Fprintf(stdout, "gc: %s\n", stats)
		return 0
	default:
		usage(fs, stderr)
		return 2
	}
}

// list prints the recorded history and the saved baselines.
func list(w io.Writer, st *store.Store) error {
	runs, err := st.History()
	if err != nil {
		return err
	}
	t := report.Table{
		Title:   fmt.Sprintf("Run history (%d runs)", len(runs)),
		Columns: []string{"time", "label", "host", "cells", "errors"},
	}
	for _, rr := range runs {
		errs := 0
		for _, c := range rr.Cells {
			if c.Error != "" {
				errs++
			}
		}
		t.AddRow(rr.Time.Format("2006-01-02T15:04:05Z"), rr.Label, rr.Host,
			fmt.Sprint(len(rr.Cells)), fmt.Sprint(errs))
	}
	t.Fprint(w)

	names, err := st.Baselines()
	if err != nil {
		return err
	}
	bt := report.Table{
		Title:   fmt.Sprintf("Baselines (%d)", len(names)),
		Columns: []string{"name", "time", "label", "cells"},
	}
	for _, name := range names {
		rr, err := st.LoadBaseline(name)
		if err != nil {
			return err
		}
		bt.AddRow(name, rr.Time.Format("2006-01-02T15:04:05Z"), rr.Label, fmt.Sprint(len(rr.Cells)))
	}
	bt.Fprint(w)
	return nil
}

// save stores the latest (optionally label-filtered) history run under
// a baseline name.
func save(w io.Writer, st *store.Store, name, label string) error {
	rr, err := st.LatestRun(label)
	if err != nil {
		return err
	}
	if err := st.SaveBaseline(name, rr); err != nil {
		return err
	}
	fmt.Fprintf(w, "saved baseline %q: %s run %q, %d cells\n",
		name, rr.Time.Format("2006-01-02T15:04:05Z"), rr.Label, len(rr.Cells))
	errs := 0
	for _, c := range rr.Cells {
		if c.Error != "" {
			errs++
		}
	}
	if errs > 0 {
		fmt.Fprintf(w, "warning: %d of %d baseline cells are errored and will not be comparable in diffs\n", errs, len(rr.Cells))
	}
	return nil
}

// diff compares the latest run against a baseline and reports whether
// anything regressed past the active gate.
func diff(w io.Writer, st *store.Store, name, label, gate string, sg store.StatGate) (bool, error) {
	base, err := st.LoadBaseline(name)
	if err != nil {
		return false, err
	}
	runs, err := st.History()
	if err != nil {
		return false, err
	}
	cur, prior, err := store.LatestWithPrior(runs, label)
	if err != nil {
		return false, err
	}
	var d store.Diff
	if gate == "stat" {
		d = store.DiffRunsStat(base, cur, prior, sg)
	} else {
		d = store.DiffRuns(base, cur, sg.Threshold)
	}
	if compared := d.Stable + len(d.Regressions) + len(d.Improvements) + len(d.Broken); compared == 0 {
		// A gate that compared nothing must not pass: the latest run
		// and the baseline describe disjoint matrices (different
		// benchmarks, scale, or tool — use -label to pick the right
		// history entries).
		return false, fmt.Errorf("no cell of the latest run %q (%d cells) matches baseline %q (%d cells); nothing was compared",
			cur.Label, len(cur.Cells), name, len(base.Cells))
	}

	fmt.Fprintf(w, "baseline %q (%s, %d cells) vs latest run %q (%s, %d cells), gate %s, threshold %.0f%%\n\n",
		name, base.Time.Format("2006-01-02T15:04:05Z"), len(base.Cells),
		cur.Label, cur.Time.Format("2006-01-02T15:04:05Z"), len(cur.Cells), d.Mode, d.Threshold*100)

	printCells := func(title string, cells []store.CellDiff) {
		cols := []string{"cell", "baseline", "current", "delta"}
		if d.Mode == "stat" {
			cols = append(cols, "noise band", "gate")
		}
		t := report.Table{Title: title, Columns: cols}
		for _, c := range cells {
			row := []string{c.Cell(), fmt.Sprintf("%.3fs", c.BaseSeconds),
				fmt.Sprintf("%.3fs", c.CurrentSeconds), fmt.Sprintf("%+.1f%%", c.Delta*100)}
			if d.Mode == "stat" {
				band := "-"
				if c.Noise != nil {
					band = fmt.Sprintf("[%.3fs, %.3fs] n=%d", c.Noise.Lo, c.Noise.Hi, c.Noise.N)
				}
				row = append(row, band, c.Gate)
			}
			t.AddRow(row...)
		}
		t.Fprint(w)
	}
	if len(d.Regressions) > 0 {
		printCells(fmt.Sprintf("REGRESSED (%d cells)", len(d.Regressions)), d.Regressions)
	}
	if len(d.Improvements) > 0 {
		printCells(fmt.Sprintf("Improved (%d cells)", len(d.Improvements)), d.Improvements)
	}
	if len(d.Broken) > 0 {
		t := report.Table{Title: fmt.Sprintf("BROKEN (%d cells measured in baseline, errored now)", len(d.Broken)),
			Columns: []string{"cell"}}
		for _, id := range d.Broken {
			t.AddRow(id)
		}
		t.Fprint(w)
	}
	if d.Mode == "stat" {
		fmt.Fprintf(w, "%d cells stable within their noise bands (threshold fallback ±%.0f%%)", d.Stable, d.Threshold*100)
	} else {
		fmt.Fprintf(w, "%d cells stable within ±%.0f%%", d.Stable, d.Threshold*100)
	}
	if len(d.OnlyBase) > 0 || len(d.OnlyCurrent) > 0 {
		fmt.Fprintf(w, "; %d baseline and %d current cells without a measured counterpart (not compared)",
			len(d.OnlyBase), len(d.OnlyCurrent))
	}
	fmt.Fprintln(w)
	if d.Regressed() {
		fmt.Fprintf(w, "result: REGRESSION — %d cells outside what baseline %q allows, %d broken\n",
			len(d.Regressions), name, len(d.Broken))
	} else if d.Mode == "stat" {
		fmt.Fprintln(w, "result: ok — no cell left its historical noise band")
	} else {
		fmt.Fprintf(w, "result: ok — no cell regressed past %.0f%%\n", d.Threshold*100)
	}
	return d.Regressed(), nil
}

// cellEntry is one historical measurement of one cell.
type cellEntry struct {
	time  string
	label string
	rec   report.Record
}

// show prints the measurement history and noise statistics of every
// cell whose name contains the pattern. The full recorded history is
// listed; the noise model, like the gate's, pools only fresh samples
// from the most recent -window runs.
func show(w io.Writer, st *store.Store, pattern, label string, sg store.StatGate) error {
	all, err := st.History()
	if err != nil {
		return err
	}
	var runs []store.RunRecord
	for _, rr := range all {
		if label == "" || rr.Label == label {
			runs = append(runs, rr)
		}
	}
	byCell := make(map[store.CellRef][]cellEntry)
	names := make(map[store.CellRef]string)
	for _, rr := range runs {
		for _, c := range rr.Cells {
			name := store.CellName(c)
			if !strings.Contains(name, pattern) {
				continue
			}
			ref := store.RefOfRecord(c)
			names[ref] = name
			byCell[ref] = append(byCell[ref], cellEntry{
				time:  rr.Time.Format("2006-01-02T15:04:05Z"),
				label: rr.Label,
				rec:   c,
			})
		}
	}
	if len(byCell) == 0 {
		return fmt.Errorf("no recorded cell matches %q (names look like arm/mem.hot/interp@64)", pattern)
	}
	refs := make([]store.CellRef, 0, len(byCell))
	for ref := range byCell {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool { return names[refs[i]] < names[refs[j]] })
	// The gate's own pool construction — fresh samples, per-cell
	// window — so show's n/band/gate can never diverge from diff's.
	allSamples := store.Samples(runs)
	for _, ref := range refs {
		entries := byCell[ref]
		samples := sg.Pool(allSamples[ref])
		band := sg.Band(ref, samples)
		t := report.Table{
			Title:   fmt.Sprintf("Cell %s — %d runs recorded", names[ref], len(entries)),
			Columns: []string{"time", "label", "kernel", "vs median"},
		}
		for _, e := range entries {
			if e.rec.Error != "" {
				t.AddRow(e.time, e.label, "ERR", e.rec.Error)
				continue
			}
			vs := "-"
			if band.Median > 0 {
				vs = fmt.Sprintf("%+.1f%%", (e.rec.KernelSeconds/band.Median-1)*100)
			}
			kernel := fmt.Sprintf("%.3fs", e.rec.KernelSeconds)
			if e.rec.Cached {
				kernel += " (cached)"
			}
			t.AddRow(e.time, e.label, kernel, vs)
		}
		t.Fprint(w)
		fmt.Fprintf(w, "noise: n=%d median=%.3fs mad=%.4fs band=[%.3fs, %.3fs]\n",
			band.N, band.Median, band.MAD, band.Lo, band.Hi)
		// The prediction below is for the *next* recorded measurement:
		// when diff judges it, its sample pool is exactly the runs
		// recorded now (diff always excludes the run under test).
		switch {
		case len(samples) < sg.MinHistory:
			fmt.Fprintf(w, "gate: the next diff falls back to the fixed threshold — history n=%d below -min-history %d\n\n", len(samples), sg.MinHistory)
		case band.Degenerate():
			fmt.Fprintf(w, "gate: threshold floor — history has zero spread, band widens to median±%.0f%%\n\n", sg.Threshold*100)
		default:
			fmt.Fprintf(w, "gate: statistical — the next measurement flags if it leaves the band\n\n")
		}
	}
	return nil
}
