package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"simbench/internal/arch"
	"simbench/internal/engine"
	"simbench/internal/experiment"
	"simbench/internal/sched"
	"simbench/internal/store"
	"simbench/internal/versions"
)

// workloads are the named benchmark input sets.
var workloads = map[string]func(cfg *config, log io.Writer) (*report, error){
	// The paper's headline Fig. 7 matrix: all five engines, engine time
	// dominates, the store is only written.
	"fig7-cold": func(cfg *config, log io.Writer) (*report, error) {
		fig7, _ := experiment.Lookup("fig7")
		fig7.Arches = []string{"arm"}
		fig7.Benches = permuted(cfg.seed, "suite:simbench")
		o := experiment.Options{Scale: 2000, Repeats: 2}
		if cfg.tiny {
			o = minimalOptions
		}
		return runCold(cfg, log, fig7, o, 100)
	},
	// The Fig. 8 axes: dbt only, twenty configurations, many short
	// cells, so per-cell set-up and GC are a large share.
	"release-sweep": func(cfg *config, log io.Writer) (*report, error) {
		fig8, _ := experiment.Lookup("fig8")
		fig8.Name = "release-sweep"
		fig8.Benches = append(permuted(cfg.seed, "suite:spec"), permuted(cfg.seed+1, "suite:simbench")...)
		o := experiment.Options{Scale: 200000, SpecScale: 2000, Repeats: 2}
		if cfg.tiny {
			o = minimalOptions
			specs, micro := fig8.Benches[:2:2], permuted(cfg.seed+1, "suite:simbench")[:2]
			fig8.Benches = append(specs, micro...)
			fig8.Series.Groups = []experiment.SeriesGroup{{Name: "SPEC", Benches: specs}, {Name: "SimBench", Benches: micro}}
		}
		return runCold(cfg, log, fig8, o, 100)
	},
	// The only multi-hart workload: round-robin hart loop, IPIs and the
	// exclusive monitor.
	"smp-scaling": func(cfg *config, log io.Writer) (*report, error) {
		sp := experiment.Spec{
			Name:     "smp-scaling",
			Renderer: experiment.RenderMatrix,
			Title:    "SMP scaling, {arch} guest (kernel seconds; scale 1/{scale})",
			Arches:   []string{"arm"},
			Benches:  permuted(cfg.seed, "cat:smp"),
			Engines:  []string{"interp", "dbt"},
			Cores:    []int{1, 2, 4},
		}
		o := experiment.Options{Scale: 8, Repeats: 2}
		if cfg.tiny {
			o = minimalOptions
		}
		return runCold(cfg, log, sp, o, 100)
	},
	// Every built-in spec served from a warm store: no engine runs, the
	// time is keys, store reads, history decode and rendering.
	"replay": runReplay,
}

// hardLimit stops a run that is still short of its minimum sample
// count, so that a slow host ends the run instead of overrunning.
const hardLimit = 120 * time.Second

// minimalOptions shrink every cell to its minimum iteration count and
// one repeat: the self-test's size, and the replay fixture's, whose
// cost does not depend on iteration counts.
var minimalOptions = experiment.Options{Scale: 1 << 40, SpecScale: 1 << 40, MinIters: 8, Repeats: 1}

// permuted expands bench selectors to names in a seed-determined
// order. The leading bench stays first: its cells double as the
// scheduler's per-engine warm-ups, whose cost must not depend on the
// seed.
func permuted(seed int64, sels ...string) []string {
	benches, err := experiment.ExpandBenches(sels)
	if err != nil {
		panic(err) // the selectors above are constants
	}
	names := make([]string, len(benches))
	for i, b := range benches {
		names[i] = b.Name
	}
	rest := names[1:]
	rand.New(rand.NewSource(seed)).Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return names
}

// jobsFor expands a spec into the jobs experiment.Run schedules for it
// under o, in matrix order, with live engine factories.
func jobsFor(sp experiment.Spec, o experiment.Options) ([]sched.Job, error) {
	if sp.Scale > 0 {
		o.Scale = sp.Scale
	}
	if sp.SpecScale > 0 {
		o.SpecScale = sp.SpecScale
	}
	if sp.MinIters > 0 {
		o.MinIters = sp.MinIters
	}
	if sp.Repeats > 0 {
		o.Repeats = sp.Repeats
	}
	if o.Repeats <= 0 {
		o.Repeats = 2
	}
	m := sched.Matrix{Cores: sp.Cores, Iters: o.Iters, Repeats: o.Repeats}
	for _, a := range arch.All() {
		if len(sp.Arches) == 0 || slices.Contains(sp.Arches, a.Name()) {
			m.Arches = append(m.Arches, a)
		}
	}
	var err error
	if m.Benches, err = experiment.ExpandBenches(sp.Benches); err != nil {
		return nil, err
	}
	names := sp.Engines
	if len(names) == 0 {
		names = []string{"dbt", "interp", "detailed", "virt", "native"}
		if sp.Renderer == experiment.RenderDensity {
			names = []string{"profile"}
		}
	}
	for _, name := range names {
		if name == "releases" {
			for _, rel := range versions.All() {
				rel := rel
				m.Engines = append(m.Engines, sched.Engine{Name: rel.Name, New: func() engine.Engine { return rel.Engine() }})
			}
			continue
		}
		if _, err := experiment.EngineByName(name); err != nil {
			return nil, err
		}
		name := name
		m.Engines = append(m.Engines, sched.Engine{Name: name, New: func() engine.Engine {
			e, _ := experiment.EngineByName(name)
			return e
		}})
	}
	return m.Jobs(), nil
}

// stampWriter records when each Write arrives, in wall and CPU time;
// with keep it also holds the bytes. The scheduler writes one progress
// line per completed cell, so its stamps are cell completion times.
type stampWriter struct {
	keep   bool
	buf    bytes.Buffer
	stamps []time.Time
	cpus   []time.Duration
	ends   []int // bytes written up to and including each write
	n      int
}

func (w *stampWriter) Write(p []byte) (int, error) {
	w.stamps = append(w.stamps, time.Now())
	w.cpus = append(w.cpus, cpuNow())
	w.n += len(p)
	w.ends = append(w.ends, w.n)
	if w.keep {
		w.buf.Write(p)
	}
	return len(p), nil
}

// spansTo splits the writes at the given cumulative byte offsets and
// records a span from the first to the last write of each part.
func (w *stampWriter) spansTo(tr *tracer, name string, bounds []int) {
	i := 0
	for _, b := range bounds {
		first := i
		for i < len(w.ends) && w.ends[i] <= b {
			i++
		}
		if i > first {
			tr.spanAt(name, w.stamps[first], w.stamps[i-1])
		}
	}
}

// coldPass is one measured matrix: experiment.Run of the workload's
// spec into an empty disk store.
type coldPass struct {
	// wall and cpu time the experiment.Run call; setup is the CPU time
	// from the call to the first completed cell, cellMS the CPU time
	// between consecutive completed cells.
	wall, cpu, setup time.Duration
	cellMS           []float64
	results          []sched.Result // read back from the store, matrix order
	sims             map[string]string
	failed           int
	problems         []string
	putBytes         int64
	hits, gets       uint64
}

// dropOneBlob deletes the first stored cell (in path order).
func dropOneBlob(objects string) error {
	var victim string
	err := filepath.Walk(objects, func(path string, info os.FileInfo, err error) error {
		if err == nil && victim == "" && info.Mode().IsRegular() {
			victim = path
		}
		return err
	})
	if err == nil && victim == "" {
		err = errors.New("no stored cell to drop")
	}
	if err != nil {
		return err
	}
	return os.Remove(victim)
}

// runColdPass runs the spec once. With a tracer, the scheduler's spans
// and the benchmark's own spans around each call are recorded. drop
// deletes one stored cell before the read-back, forcing a failure the
// read-back must catch.
func runColdPass(dir string, sp experiment.Spec, o experiment.Options, jobs []sched.Job, tr *tracer, drop bool) *coldPass {
	p := &coldPass{sims: map[string]string{}}
	runtime.GC()
	open := tr.begin("store.open")
	s, err := store.Open(dir)
	open.End()
	if err != nil {
		p.problem(len(jobs), "open store: %v", err)
		return p
	}
	prog, out := &stampWriter{}, &stampWriter{keep: true}
	o.Store, o.Out, o.Progress, o.Jobs = s, out, prog, 1
	o.Context = tr.context()

	entry := tr.begin("experiment.run")
	t0, c0 := time.Now(), cpuNow()
	runErr := experiment.Run(sp, o)
	p.wall, p.cpu = time.Since(t0), cpuNow()-c0
	entry.End()
	out.spansTo(tr, "report.render", []int{out.n})
	closing := tr.begin("store.open")
	closeErr := s.Close()
	closing.End()
	if len(prog.cpus) > 0 {
		p.setup = prog.cpus[0] - c0
		for i := 1; i < len(prog.cpus); i++ {
			p.cellMS = append(p.cellMS, float64(prog.cpus[i]-prog.cpus[i-1])/1e6)
		}
	}
	p.hits, p.gets = storeGets(s)
	p.putBytes = dirBytes(filepath.Join(dir, "objects"))
	if drop {
		if err := dropOneBlob(filepath.Join(dir, "objects")); err != nil {
			p.problem(0, "force failure: %v", err)
		}
	}

	// Read every cell back from disk through a fresh store: each must be
	// present, error-free and recorded in this pass's history line.
	rs, err := store.Open(dir)
	if err != nil {
		p.problem(len(jobs), "reopen store: %v", err)
		return p
	}
	defer rs.Close()
	results, missing, err := rs.Coverage(context.Background(), jobs)
	switch {
	case err != nil:
		p.problem(len(jobs), "read back: %v", err)
		return p
	case len(missing) > 0:
		p.problem(len(missing), "%d of %d cells missing from the store: %v", len(missing), len(jobs), missing[0])
	}
	if runErr != nil {
		p.problem(0, "experiment.Run: %v", runErr)
	}
	if closeErr != nil {
		p.problem(0, "close store: %v", closeErr)
	}
	if out.buf.Len() == 0 {
		p.problem(0, "nothing rendered")
	}
	if len(prog.stamps) != len(jobs) {
		p.problem(0, "%d progress lines for %d cells", len(prog.stamps), len(jobs))
	}
	// A failed cell has no blob, so it is already counted as missing.
	runs, err := rs.History()
	if err != nil || len(runs) != 1 {
		p.problem(0, "history: want one run, have %d (%v)", len(runs), err)
	} else {
		for _, c := range runs[0].Cells {
			if c.Error != "" {
				p.problem(0, "cell error: %s", c.Error)
			}
		}
	}
	for _, r := range results {
		if r.Run == nil {
			continue
		}
		id, sum := cellSim(r)
		p.sims[id] = sum
		p.results = append(p.results, r)
	}
	return p
}

func (p *coldPass) problem(failed int, format string, args ...any) {
	p.failed += failed
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// runCold measures a cold workload: untraced passes until the time is
// up (and at least minOps cell latencies are in hand, so p90 has ten
// samples beyond it), or, when tracing, a third of the time untraced
// and the rest traced.
func runCold(cfg *config, log io.Writer, sp experiment.Spec, o experiment.Options, minOps int) (*report, error) {
	jobs, err := jobsFor(sp, o)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var ref map[string]string
	check := func(i int, p *coldPass) {
		rep.attempted += len(jobs)
		rep.failed += p.failed
		rep.problems = append(rep.problems, p.problems...)
		if ref == nil {
			ref = p.sims
			rep.digest = simDigest(p.sims)
			return
		}
		// Same code, same cells: every simulated statistic must repeat.
		for id, sum := range p.sims {
			if ref[id] != sum {
				rep.failed++
				rep.problem("pass %d: simulated statistics of %s differ from pass 0", i, id)
			}
		}
	}

	start := time.Now()
	budget := time.Duration(cfg.seconds) * time.Second
	var walls, cpus, setups, cells []float64
	var rss float64
	resetPeakRSS()
	var traced []*coldPass
	lay := &layers{}
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if cfg.trace {
			if len(traced) > 0 && elapsed >= budget {
				break
			}
		} else if i > 0 && elapsed >= budget && (len(cells) >= minOps || elapsed >= hardLimit) {
			break
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("pass%03d", i))
		if cfg.trace && len(walls) > 0 && elapsed >= budget/3 {
			p := lay.tracedColdPass(dir, sp, o, jobs, cfg.fail)
			check(i, p)
			traced = append(traced, p)
		} else {
			p := runColdPass(dir, sp, o, jobs, nil, cfg.fail)
			check(i, p)
			walls = append(walls, p.wall.Seconds())
			cpus = append(cpus, p.cpu.Seconds())
			setups = append(setups, p.setup.Seconds())
			cells = append(cells, p.cellMS...)
			rss = peakRSSMB()
			fmt.Fprintf(log, "perfbench: %s pass %d: wall %.3fs, cpu %.3fs, setup %.3fs, peak rss so far %.1f MB\n",
				sp.Name, i, p.wall.Seconds(), p.cpu.Seconds(), p.setup.Seconds(), rss)
			if !cfg.trace {
				mipsInto(rep, p.results)
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if rep.failed > 0 || len(rep.problems) > 0 {
			break // a broken pass would fail the same way again
		}
	}
	if cfg.trace {
		lay.finish(cfg, rep, median(walls))
		return rep, nil
	}
	rep.set("cpu_s", median(cpus), "s")
	rep.set("setup_s", median(setups), "s")
	rep.set("op_p50_ms", quantile(cells, 0.5), "ms")
	rep.set("op_p90_ms", quantile(cells, 0.9), "ms")
	rep.set("peak_rss_mb", rss, "MB")
	rep.infof("passes %d, cells per pass %d, cell latencies %d", len(walls), len(jobs), len(cells))
	rep.infof("metric wall_s %.4f s", median(walls))
	rep.mipsInfo()
	return rep, nil
}

// mipsInto accumulates retired guest instructions and host seconds
// inside engine.Run (Result.Total) per engine class, over the measured
// cells of one pass.
func mipsInto(rep *report, results []sched.Result) {
	if rep.mips == nil {
		rep.mips = map[string]*[2]float64{}
	}
	for _, r := range results {
		e := engineClass(r.Run.Engine)
		if rep.mips[e] == nil {
			rep.mips[e] = new([2]float64)
		}
		rep.mips[e][0] += float64(r.Run.Stats.Instructions)
		rep.mips[e][1] += r.Run.Total.Seconds()
	}
}

func (r *report) mipsInfo() {
	for _, e := range engineClasses {
		if m := r.mips[e]; m != nil && m[1] > 0 {
			r.infof("metric mips.%s %.3f Minsn/s", e, m[0]/m[1]/1e6)
		}
	}
}

// engineClasses are the five evaluation platforms; every modelled
// release is a dbt configuration.
var engineClasses = []string{"dbt", "interp", "detailed", "virt", "native"}

func engineClass(name string) string {
	switch name {
	case "interp", "detailed", "virt", "native":
		return name
	case "profile", "interp-profile":
		return "interp"
	}
	return "dbt"
}

// --- replay ---

// Replay fixture shape. The history length is pinned because the cost
// of a warm pass grows with it (every noise-annotated spec decodes the
// whole history): freshFig7Runs measured fig7 runs, then one line per
// built-in spec.
const freshFig7Runs = 5

// fixture is the replay store snapshot and the bytes every pass must
// render from it.
type fixture struct {
	dir      string
	history  []byte
	ref      []byte
	refEnds  []int // where each spec's render ends in ref
	specs    []experiment.Spec
	jobs     [][]sched.Job // per spec
	cells    int
	lines    int
	digest   string
	setupDur time.Duration
}

func (f *fixture) historyPath() string { return filepath.Join(f.dir, "history.jsonl") }

// restore puts the store back to the snapshot every pass starts from.
func (f *fixture) restore() error { return os.WriteFile(f.historyPath(), f.history, 0o644) }

// buildFixture populates the replay store: freshFig7Runs cold fig7
// runs, each in its own store (so every run is freshly measured and
// the noise-band path has its five samples), merged into one, then
// every built-in spec in registration order. The reference render is
// a warm pass over the result; an offline pass must match it.
func buildFixture(cfg *config, log io.Writer) (*fixture, error) {
	t0 := time.Now()
	f := &fixture{dir: filepath.Join(cfg.work, "fixture"), specs: experiment.All()}
	o := minimalOptions
	o.Out = io.Discard
	fig7, _ := experiment.Lookup("fig7")
	fig7Jobs, err := jobsFor(fig7, o)
	if err != nil {
		return nil, err
	}
	var ref map[string]string
	for i := 0; i < freshFig7Runs; i++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("fresh%d", i))
		s, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		o.Store = s
		if err := experiment.Run(fig7, o); err != nil {
			return nil, fmt.Errorf("fixture fig7 run %d: %w", i, err)
		}
		results, missing, err := s.Coverage(context.Background(), fig7Jobs)
		if err != nil || len(missing) > 0 {
			return nil, fmt.Errorf("fixture fig7 run %d: %d cells missing (%v)", i, len(missing), err)
		}
		sims := map[string]string{}
		for _, r := range results {
			id, sum := cellSim(r)
			sims[id] = sum
		}
		if ref == nil {
			ref = sims
		} else if simDigest(sims) != simDigest(ref) {
			return nil, fmt.Errorf("fixture fig7 run %d: simulated statistics differ from run 0", i)
		}
		if err := s.Close(); err != nil {
			return nil, err
		}
		if err := mergeStore(f.dir, dir); err != nil {
			return nil, err
		}
	}
	s, err := store.Open(f.dir)
	if err != nil {
		return nil, err
	}
	o.Store = s
	all := map[string]string{}
	for _, sp := range f.specs {
		if err := experiment.Run(sp, o); err != nil {
			return nil, fmt.Errorf("fixture %s: %w", sp.Name, err)
		}
		jobs, err := jobsFor(sp, o)
		if err != nil {
			return nil, err
		}
		results, missing, err := s.Coverage(context.Background(), jobs)
		if err != nil || len(missing) > 0 {
			return nil, fmt.Errorf("fixture %s: %d cells missing (%v)", sp.Name, len(missing), err)
		}
		for _, r := range results {
			id, sum := cellSim(r)
			all[id] = sum
		}
		f.jobs = append(f.jobs, jobs)
		f.cells += len(jobs)
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	f.digest = simDigest(all)
	if f.history, err = os.ReadFile(f.historyPath()); err != nil {
		return nil, err
	}
	f.lines = bytes.Count(f.history, []byte("\n"))
	if want := freshFig7Runs + len(f.specs); f.lines != want {
		return nil, fmt.Errorf("fixture history has %d lines, want %d", f.lines, want)
	}

	warm := f.warmPass(nil)
	if warm.err != nil {
		return nil, fmt.Errorf("reference warm pass: %w", warm.err)
	}
	f.ref, f.refEnds = warm.out, warm.ends
	off := f.offlinePass(nil)
	if off.err != nil {
		return nil, fmt.Errorf("reference offline pass: %w", off.err)
	}
	if !bytes.Equal(off.out, f.ref) {
		return nil, fmt.Errorf("offline render differs from the warm render of the same store")
	}
	f.setupDur = time.Since(t0)
	fmt.Fprintf(log, "perfbench: replay fixture: %d specs, %d cells, %d history lines (%d bytes) in %.1fs\n",
		len(f.specs), f.cells, f.lines, len(f.history), f.setupDur.Seconds())
	return f, nil
}

// mergeStore copies every file of the store at src into dst,
// appending src's history to dst's.
func mergeStore(dst, src string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			return err
		}
		flag := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if rel == "history.jsonl" {
			flag = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		}
		out, err := os.OpenFile(target, flag, 0o644)
		if err != nil {
			return err
		}
		if _, err := out.Write(data); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// replayPass is one warm or offline pass over the snapshot.
type replayPass struct {
	// setup sums, over the specs of a warm pass, the CPU time from each
	// experiment.Run call to its first completed cell.
	wall, cpu, setup time.Duration
	out              []byte
	ends             []int // where each spec's render ends in out
	hits, gets       uint64
	err              error
}

// warmPass runs every spec through experiment.Run on a fresh Store
// over the snapshot: every cell is a hit.
func (f *fixture) warmPass(tr *tracer) replayPass {
	var p replayPass
	if p.err = f.restore(); p.err != nil {
		return p
	}
	open := tr.begin("store.open")
	s, err := store.Open(f.dir)
	open.End()
	if err != nil {
		p.err = err
		return p
	}
	out := &stampWriter{keep: true}
	o := minimalOptions
	o.Store, o.Jobs, o.Context = s, 1, tr.context()
	t0, c0 := time.Now(), cpuNow()
	for _, sp := range f.specs {
		spec, prog := &stampWriter{keep: true}, &stampWriter{}
		o.Out, o.Progress = spec, prog
		entry := tr.begin("experiment.run")
		called := cpuNow()
		err := experiment.Run(sp, o)
		entry.End()
		if len(prog.cpus) > 0 {
			p.setup += prog.cpus[0] - called
		}
		spec.spansTo(tr, "report.render", []int{spec.n})
		out.buf.Write(spec.buf.Bytes())
		p.ends = append(p.ends, out.buf.Len())
		if err != nil {
			p.err = errors.Join(p.err, fmt.Errorf("%s: %w", sp.Name, err))
		}
	}
	p.wall, p.cpu = time.Since(t0), cpuNow()-c0
	p.out = out.buf.Bytes()
	p.hits, p.gets = storeGets(s)
	closing := tr.begin("store.open")
	p.err = errors.Join(p.err, s.Close())
	closing.End()
	if p.hits != uint64(f.cells) || p.gets != p.hits {
		p.err = errors.Join(p.err, fmt.Errorf("warm pass: %d hits of %d lookups for %d cells", p.hits, p.gets, f.cells))
	}
	return p
}

// offlinePass renders every spec from the store alone.
func (f *fixture) offlinePass(tr *tracer) replayPass {
	var p replayPass
	if p.err = f.restore(); p.err != nil {
		return p
	}
	open := tr.begin("store.open")
	s, err := store.Open(f.dir)
	open.End()
	if err != nil {
		p.err = err
		return p
	}
	out := &stampWriter{keep: true}
	o := minimalOptions
	o.Store, o.Jobs, o.Out, o.Context = s, 1, out, tr.context()
	entry := tr.begin("experiment.offline")
	t0, c0 := time.Now(), cpuNow()
	err = experiment.RenderOfflineAll(f.specs, o)
	p.wall, p.cpu = time.Since(t0), cpuNow()-c0
	entry.End()
	// Between one spec's tables and the next lie that spec's store
	// reads; the reference's layout tells where each render begins.
	out.spansTo(tr, "report.render", f.refEnds)
	p.out = out.buf.Bytes()
	p.hits, p.gets = storeGets(s)
	closing := tr.begin("store.open")
	p.err = errors.Join(err, s.Close())
	closing.End()
	// Offline rendering must append nothing to history.
	if after, err := os.ReadFile(f.historyPath()); err != nil || !bytes.Equal(after, f.history) {
		p.err = errors.Join(p.err, fmt.Errorf("offline pass changed the history (%v)", err))
	}
	return p
}

func storeGets(s *store.Store) (hits, gets uint64) {
	h, m := s.Stats()
	return h, h + m
}

// runReplay alternates warm and offline passes over the fixture, in a
// seed-determined order, each checked byte for byte against the
// reference render.
func runReplay(cfg *config, log io.Writer) (*report, error) {
	f, err := buildFixture(cfg, log)
	if err != nil {
		return nil, err
	}
	if cfg.fail {
		// A reference that no correct pass can match.
		f.ref = append([]byte("forced failure\n"), f.ref...)
	}
	rep := &report{digest: f.digest}
	rng := rand.New(rand.NewSource(cfg.seed))
	var warm, offline, warmCPU, rounds, roundWalls, setups []float64
	var rss float64
	resetPeakRSS()
	lay := &layers{}
	var tracedRounds int
	check := func(kind string, p replayPass) {
		rep.attempted++
		switch {
		case p.err != nil:
			rep.failed++
			rep.problem("%s pass: %v", kind, p.err)
		case !bytes.Equal(p.out, f.ref):
			rep.failed++
			rep.problem("%s pass rendered %d bytes that differ from the %d-byte reference", kind, len(p.out), len(f.ref))
		}
	}
	const minRounds = 100 // ten passes of each kind beyond p90
	start := time.Now()
	budget := time.Duration(cfg.seconds) * time.Second
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if cfg.trace {
			if tracedRounds > 0 && elapsed >= budget {
				break
			}
		} else if elapsed >= budget && (len(rounds) >= minRounds || elapsed >= hardLimit || cfg.tiny) {
			break
		}
		tracing := cfg.trace && len(rounds) > 0 && elapsed >= budget/3
		var tr *tracer
		if tracing {
			tr = lay.tracer()
		}
		round := tr.begin("pass")
		var w, off replayPass
		var m0, m1 runtime.MemStats
		if tracing {
			runtime.ReadMemStats(&m0)
		}
		if rng.Intn(2) == 0 {
			w, off = f.warmPass(tr), f.offlinePass(tr)
		} else {
			off, w = f.offlinePass(tr), f.warmPass(tr)
		}
		round.End()
		if !tracing {
			rss = peakRSSMB()
		}
		check("warm", w)
		check("offline", off)
		if rep.failed > 0 {
			break
		}
		if tracing {
			runtime.ReadMemStats(&m1)
			memDelta(&lay.mem, &m0, &m1)
			tracedRounds++
			lay.add(w.wall+off.wall, w.hits+off.hits, w.gets+off.gets)
			continue
		}
		warm = append(warm, w.wall.Seconds()*1e3)
		offline = append(offline, off.wall.Seconds()*1e3)
		warmCPU = append(warmCPU, w.cpu.Seconds()*1e3)
		rounds = append(rounds, (w.cpu + off.cpu).Seconds())
		roundWalls = append(roundWalls, (w.wall + off.wall).Seconds())
		setups = append(setups, w.setup.Seconds())
	}
	if cfg.trace {
		if err := lay.probeReplay(f); err != nil {
			rep.problem("store probe: %v", err)
		}
		lay.finish(cfg, rep, median(roundWalls))
		return rep, nil
	}
	rep.set("cpu_s", median(rounds), "s")
	rep.set("setup_s", median(setups), "s")
	rep.set("op_p50_ms", quantile(warmCPU, 0.5), "ms")
	rep.set("op_p90_ms", quantile(warmCPU, 0.9), "ms")
	rep.set("peak_rss_mb", rss, "MB")
	rep.infof("rounds %d (one warm and one offline pass each), cells per pass %d, history %d lines (%d bytes), fixture set-up %.1fs",
		len(rounds), f.cells, f.lines, len(f.history), f.setupDur.Seconds())
	rep.infof("metric wall_s %.4f s", median(roundWalls))
	rep.infof("metric warm_p50_ms %.3f ms", quantile(warm, 0.5))
	rep.infof("metric warm_p90_ms %.3f ms", quantile(warm, 0.9))
	rep.infof("metric offline_p50_ms %.3f ms", quantile(offline, 0.5))
	rep.infof("metric offline_p90_ms %.3f ms", quantile(offline, 0.9))
	return rep, nil
}
