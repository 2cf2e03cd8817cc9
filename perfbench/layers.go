package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"simbench/internal/core"
	"simbench/internal/engine"
	"simbench/internal/experiment"
	"simbench/internal/obs"
	"simbench/internal/sched"
	"simbench/internal/store"
)

// perLayer is every per-layer metric a traced run prints, with its
// unit. Times and counts are per traced pass (per round of one warm
// and one offline pass on replay); a metric whose layer a workload
// never enters reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"platform.boot_s", "s"},
	{"core.build_s", "s"},
	{"core.harness_s", "s"},
	{"core.runs", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"sched.gc_barrier_s", "s"},
	{"engine.dbt.run_s", "s"},
	{"engine.dbt.kernel_s", "s"},
	{"engine.dbt.insns", "count"},
	{"engine.interp.run_s", "s"},
	{"engine.interp.kernel_s", "s"},
	{"engine.interp.insns", "count"},
	{"engine.detailed.run_s", "s"},
	{"engine.detailed.kernel_s", "s"},
	{"engine.detailed.insns", "count"},
	{"engine.virt.run_s", "s"},
	{"engine.virt.kernel_s", "s"},
	{"engine.virt.insns", "count"},
	{"engine.native.run_s", "s"},
	{"engine.native.kernel_s", "s"},
	{"engine.native.insns", "count"},
	{"dbt.blocks_translated", "count"},
	{"dbt.insns_translated", "count"},
	{"dbt.execs_per_block", "ratio"},
	{"dbt.chain_ratio", "ratio"},
	{"dbt.superblock_follows", "count"},
	{"dbt.tlb_hit_ratio", "ratio"},
	{"dbt.page_walks", "count"},
	{"interp.pages_decoded", "count"},
	{"virt.vm_exits", "count"},
	{"engine.exceptions", "count"},
	{"engine.device_accesses", "count"},
	{"engine.smc_invalidations", "count"},
	{"smp.exclusive_fail_ratio", "ratio"},
	{"smp.harts", "count"},
	{"sched.key_s", "s"},
	{"sched.keys", "count"},
	{"sched.warmup_s", "s"},
	{"sched.warmups", "count"},
	{"store.history_s", "s"},
	{"store.history_bytes", "bytes"},
	{"store.get_s", "s"},
	{"store.gets", "count"},
	{"store.hit_ratio", "ratio"},
	{"store.index_s", "s"},
	{"store.put_s", "s"},
	{"store.puts", "count"},
	{"store.put_bytes", "bytes"},
	{"store.append_s", "s"},
	{"store.open_s", "s"},
	{"report.render_s", "s"},
	{"unattributed_s", "s"},
	{"trace.wall_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

func perLayerNames() []string {
	out := make([]string, len(perLayer))
	for i, m := range perLayer {
		out[i] = m.name
	}
	return out
}

// tidBench is the lane of the benchmark's own spans: scheduler worker
// 0's lane, so a trace viewer nests them with the scheduler's.
const tidBench = 0

// tracer records spans in the internal/obs Chrome trace format. Its
// clock can be pinned so that an interval learned after the fact (an
// engine run, known from Result.Total once it returns) is recorded at
// the time it happened. A nil tracer records nothing.
type tracer struct {
	tr    *obs.Tracer
	start time.Time
	pin   atomic.Int64 // clock offset in ns while pinned, -1 when live
}

func newTracer() *tracer {
	t := &tracer{tr: obs.NewTracer(), start: time.Now()}
	t.pin.Store(-1)
	t.tr.SetClock(func() time.Duration {
		if v := t.pin.Load(); v >= 0 {
			return time.Duration(v)
		}
		return time.Since(t.start)
	})
	return t
}

func (t *tracer) begin(name string) *obs.Span {
	if t == nil {
		return nil
	}
	return t.tr.Begin(tidBench, name, "perfbench")
}

// spanAt records a span over [from, to]. Only the goroutine that owns
// the traced work calls it, while no other goroutine records spans.
func (t *tracer) spanAt(name string, from, to time.Time) {
	if t == nil {
		return
	}
	if to.Before(from) {
		to = from
	}
	t.pin.Store(int64(from.Sub(t.start)))
	sp := t.tr.Begin(tidBench, name, "perfbench")
	t.pin.Store(int64(to.Sub(t.start)))
	sp.End()
	t.pin.Store(-1)
}

// context carries the tracer into the scheduler, which records its
// own key, warmup, cell, store.get, measure and store.put spans.
func (t *tracer) context() context.Context {
	if t == nil {
		return context.Background()
	}
	return obs.WithTracer(context.Background(), t.tr)
}

// runRec is one Runner.Run the decomposition observed.
type runRec struct {
	engine        string
	cores         int
	total, kernel time.Duration
	stats         engine.Stats
}

// layers accumulates a traced run.
type layers struct {
	tr       *tracer
	passes   int
	walls    []float64
	runs     []runRec
	hits     uint64
	gets     uint64
	putBytes int64
	mem      runtime.MemStats // summed deltas over the traced passes
	// calls per pass of the store operations the experiment layer makes
	// out of sight, priced by the probes.
	historyCalls, appendCalls, indexCalls, coverageCalls float64
	historyBytes                                         float64
	require                                              []string
}

func (l *layers) tracer() *tracer {
	if l.tr == nil {
		l.tr = newTracer()
		l.tr.tr.NameThread(tidBench, "perfbench (worker 0)")
	}
	return l.tr
}

// add records one traced replay round.
func (l *layers) add(wall time.Duration, hits, gets uint64) {
	l.passes++
	l.walls = append(l.walls, wall.Seconds())
	l.hits += hits
	l.gets += gets
}

func memDelta(acc *runtime.MemStats, before, after *runtime.MemStats) {
	acc.TotalAlloc += after.TotalAlloc - before.TotalAlloc
	acc.NumGC += after.NumGC - before.NumGC
	acc.PauseTotalNs += after.PauseTotalNs - before.PauseTotalNs
}

// tracedColdPass runs one traced cold pass, then decomposes its cells.
//
// The pass itself is experiment.Run as untraced, with the scheduler's
// spans and the benchmark's spans around the store and the renderer.
// Inside experiment.Run the cell phases are out of reach (each run
// builds fresh benchmark objects), so the decomposition then runs
// every job once more through sched.Execute — the scheduler's public
// per-cell entry — with the benchmark's Build and Validate wrapped:
// Build's interval is core.build, Validate sees the engine's own
// Result.Total, which places engine.Run; between the two lie assembly
// and platform boot. Finally the store calls the experiment layer made
// out of sight (history read, history append) are priced by repeating
// them on the same store state.
func (l *layers) tracedColdPass(dir string, sp experiment.Spec, o experiment.Options, jobs []sched.Job, drop bool) *coldPass {
	t := l.tracer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pass := t.begin("pass")
	p := runColdPass(dir, sp, o, jobs, t, drop)
	pass.End()
	runtime.ReadMemStats(&m1)
	memDelta(&l.mem, &m0, &m1)
	l.passes++
	l.walls = append(l.walls, p.wall.Seconds())
	l.hits += p.hits
	l.gets += p.gets
	l.putBytes += p.putBytes

	dec := t.begin("decompose")
	for _, j := range jobs {
		wj := j
		wj.Bench = l.wrap(j.Bench)
		ex := t.begin("sched.execute")
		r := sched.Execute(context.Background(), wj)
		ex.End()
		if r.Err != nil {
			p.problem(1, "decomposition: %v", r.Err)
			continue
		}
		wj.Bench = j.Bench
		r.Job = wj
		if id, sum := cellSim(r); p.sims[id] != "" && p.sims[id] != sum {
			p.problem(1, "decomposition: simulated statistics of %s differ from the pass", id)
		}
	}
	dec.End()

	probe := t.begin("probe")
	ps, err := store.Open(dir + "-probe")
	if err == nil {
		h := t.begin("store.history")
		_, err = ps.History()
		h.End()
		a := t.begin("store.append")
		err = errors.Join(err, ps.AppendHistory(sp.Label(), p.results))
		a.End()
		err = errors.Join(err, ps.Close())
	}
	probe.End()
	if err != nil {
		p.problem(0, "store probe: %v", err)
	}
	_ = os.RemoveAll(dir + "-probe")
	if sp.Noise {
		l.historyCalls = 1
	}
	l.appendCalls = 1
	l.require = append([]string{"pass", "experiment.run", "store.open", "key", "warmup", "cell", "store.get",
		"measure", "store.put", "report.render", "decompose", "sched.execute", "core.run", "core.build",
		"platform.boot", "core.validate", "probe", "store.history", "store.append"}, engineSpans(l.runs)...)
	return p
}

func engineSpans(runs []runRec) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range runs {
		if name := "engine." + r.engine + ".run"; !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// wrap returns a copy of b whose Build and Validate record the phases
// of each Runner.Run that uses it.
func (l *layers) wrap(b *core.Benchmark) *core.Benchmark {
	w := *b
	var buildStart, buildEnd time.Time
	w.Build = func(env *core.Env) error {
		buildStart = time.Now()
		err := b.Build(env)
		buildEnd = time.Now()
		return err
	}
	w.Validate = func(r *core.Result) error {
		v0 := time.Now()
		var err error
		if b.Validate != nil {
			err = b.Validate(r)
		}
		v1 := time.Now()
		e := engineClass(r.Engine)
		engineStart := v0.Add(-r.Total)
		t := l.tr
		t.spanAt("core.run", buildStart, v1)
		t.spanAt("core.build", buildStart, buildEnd)
		t.spanAt("platform.boot", buildEnd, engineStart)
		t.spanAt("engine."+e+".run", engineStart, v0)
		t.spanAt("core.validate", v0, v1)
		l.runs = append(l.runs, runRec{engine: e, cores: r.Cores, total: r.Total, kernel: r.Kernel, stats: r.Stats})
		return err
	}
	return &w
}

// probeReplay prices the store calls a replay round makes inside
// experiment.Run and RenderOfflineAll, where no span reaches: each is
// repeated on a fresh Store over the snapshot.
func (l *layers) probeReplay(f *fixture) error {
	t := l.tracer()
	noise := 0
	for _, sp := range f.specs {
		if sp.Noise {
			noise = 1
		}
	}
	// Warm: one history read per noise-annotated spec, one append per
	// spec. Offline: one read for the cell index, one more for the
	// noise pool, one index build, one coverage sweep.
	l.historyCalls = float64(noise + 1 + noise)
	l.appendCalls = float64(len(f.specs))
	l.indexCalls = 1
	l.coverageCalls = 1
	l.historyBytes = l.historyCalls * float64(len(f.history))
	l.require = []string{"pass", "experiment.run", "experiment.offline", "store.open", "key", "cell", "store.get",
		"report.render", "probe", "store.history", "store.index", "store.coverage", "store.append"}

	if err := f.restore(); err != nil {
		return err
	}
	scratch := f.dir + "-probe"
	defer os.RemoveAll(scratch)
	for rep := 0; rep < 3; rep++ {
		probe := t.begin("probe")
		s, err := store.Open(f.dir)
		if err != nil {
			return err
		}
		h := t.begin("store.history")
		runs, err := s.History()
		h.End()
		if err != nil {
			return err
		}
		ix := t.begin("store.index")
		idx := store.CoverageIndex(runs)
		ix.End()
		cov := t.begin("store.coverage")
		var all [][]sched.Result
		for _, jobs := range f.jobs {
			results, missing, err := s.CoverageOf(context.Background(), idx, jobs)
			if err != nil || len(missing) > 0 {
				return fmt.Errorf("coverage: %d missing (%v)", len(missing), err)
			}
			all = append(all, results)
		}
		cov.End()
		ps, err := store.Open(scratch)
		if err != nil {
			return err
		}
		a := t.begin("store.append")
		for i, sp := range f.specs {
			err = errors.Join(err, ps.AppendHistory(sp.Label(), all[i]))
		}
		a.End()
		err = errors.Join(err, ps.Close(), s.Close())
		probe.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// spanStat is the per-name sum over a trace.
type spanStat struct {
	total, self float64 // seconds
	count       int
}

// traceEvent is the subset of the obs trace-event shape read back.
type traceEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
}

// spanStats reads a trace file back and sums each span name's
// duration and self time (its duration minus the part covered by the
// spans nested directly inside it).
func spanStats(path string) (map[string]*spanStat, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, err
	}
	var evs []traceEvent
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			evs = append(evs, ev)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Ts != evs[j].Ts {
			return evs[i].Ts < evs[j].Ts
		}
		return evs[i].Dur > evs[j].Dur
	})
	type open struct {
		end   int64
		child int64
		name  string
		dur   int64
	}
	stats := map[string]*spanStat{}
	var stack []*open
	closeTop := func() {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st := stats[o.name]
		if st == nil {
			st = &spanStat{}
			stats[o.name] = st
		}
		self := o.dur - o.child
		if self < 0 {
			self = 0
		}
		st.total += float64(o.dur) / 1e6
		st.self += float64(self) / 1e6
		st.count++
	}
	for _, ev := range evs {
		for len(stack) > 0 && stack[len(stack)-1].end <= ev.Ts {
			closeTop()
		}
		end := ev.Ts + ev.Dur
		if len(stack) > 0 {
			parent := stack[len(stack)-1]
			if end > parent.end { // microsecond rounding
				end = parent.end
			}
			parent.child += end - ev.Ts
		}
		stack = append(stack, &open{end: end, name: ev.Name, dur: end - ev.Ts})
	}
	for len(stack) > 0 {
		closeTop()
	}
	return stats, nil
}

// finish writes and validates the trace and reduces it, with the
// decomposition's run records, to the per-layer metrics.
func (l *layers) finish(cfg *config, rep *report, untracedWall float64) {
	if l.passes == 0 || l.tr == nil {
		rep.problem("no traced pass ran")
		return
	}
	path := filepath.Join(filepath.Dir(cfg.work), "trace-"+cfg.workload+".json")
	if err := l.tr.tr.WriteFile(path); err != nil {
		rep.problem("write trace: %v", err)
		return
	}
	args := []string{"-format", "trace"}
	for _, name := range l.require {
		args = append(args, "-require", name)
	}
	out, err := exec.Command(cfg.obscheck, append(args, path)...).CombinedOutput()
	if err != nil {
		rep.problem("obscheck %s: %v: %s", path, err, out)
	}
	rep.infof("trace %s (%d required span names validated by obscheck)", path, len(l.require))
	st, err := spanStats(path)
	if err != nil {
		rep.problem("read trace: %v", err)
		return
	}
	n := float64(l.passes)
	get := func(name string) *spanStat {
		if s := st[name]; s != nil {
			return s
		}
		return &spanStat{}
	}
	per := func(name string, v float64, unit string) { rep.set(name, v/n, unit) }
	perSpan := func(metric, span string) { per(metric, get(span).total, "s") }
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	probe := func(span string) float64 { // seconds per call
		s := get(span)
		return frac(s.total, float64(s.count))
	}

	// core, platform and engine: the decomposition.
	var engineTotal float64
	byEngine := map[string]*runRec{}
	var all engine.Stats
	var dbtStats, interpStats, virtStats engine.Stats
	harts := 0
	for _, r := range l.runs {
		agg := byEngine[r.engine]
		if agg == nil {
			agg = &runRec{}
			byEngine[r.engine] = agg
		}
		agg.total += r.total
		agg.kernel += r.kernel
		agg.stats.Instructions += r.stats.Instructions
		engineTotal += r.total.Seconds()
		all.Add(r.stats)
		switch r.engine {
		case "dbt":
			dbtStats.Add(r.stats)
		case "interp":
			interpStats.Add(r.stats)
		case "virt":
			virtStats.Add(r.stats)
		}
		harts += r.cores
	}
	perSpan("platform.boot_s", "platform.boot")
	perSpan("core.build_s", "core.build")
	per("core.harness_s", get("core.run").total-engineTotal, "s")
	per("core.runs", float64(get("core.run").count), "count")
	per("go.alloc_mb", float64(l.mem.TotalAlloc)/1e6, "MB")
	per("go.gc_cycles", float64(l.mem.NumGC), "count")
	per("go.gc_pause_s", float64(l.mem.PauseTotalNs)/1e9, "s")
	per("sched.gc_barrier_s", get("sched.execute").self, "s")
	for _, e := range engineClasses {
		agg := byEngine[e]
		if agg == nil {
			agg = &runRec{}
		}
		per("engine."+e+".run_s", agg.total.Seconds(), "s")
		per("engine."+e+".kernel_s", agg.kernel.Seconds(), "s")
		per("engine."+e+".insns", float64(agg.stats.Instructions), "count")
	}
	per("dbt.blocks_translated", float64(dbtStats.BlocksTranslated), "count")
	per("dbt.insns_translated", float64(dbtStats.InsnsTranslated), "count")
	rep.set("dbt.execs_per_block", frac(float64(dbtStats.BlockExecutions), float64(dbtStats.BlocksTranslated)), "ratio")
	rep.set("dbt.chain_ratio", frac(float64(dbtStats.ChainFollows), float64(dbtStats.ChainFollows+dbtStats.CacheLookups)), "ratio")
	per("dbt.superblock_follows", float64(dbtStats.SuperblockFollows), "count")
	rep.set("dbt.tlb_hit_ratio", frac(float64(dbtStats.TLBHits), float64(dbtStats.TLBHits+dbtStats.TLBMisses)), "ratio")
	per("dbt.page_walks", float64(dbtStats.PageWalks), "count")
	per("interp.pages_decoded", float64(interpStats.PagesDecoded), "count")
	per("virt.vm_exits", float64(virtStats.VMExits), "count")
	per("engine.exceptions", float64(all.ExceptionsTaken), "count")
	per("engine.device_accesses", float64(all.DeviceAccesses), "count")
	per("engine.smc_invalidations", float64(all.SMCInvalidations), "count")
	rep.set("smp.exclusive_fail_ratio", frac(float64(all.ExclusiveFails), float64(all.ExclusiveOps)), "ratio")
	per("smp.harts", float64(harts), "count")

	// sched and store: the scheduler's spans and the probes.
	perSpan("sched.key_s", "key")
	per("sched.keys", float64(get("key").count), "count")
	perSpan("sched.warmup_s", "warmup")
	per("sched.warmups", float64(get("warmup").count), "count")
	history := l.historyCalls * probe("store.history")
	index := l.indexCalls * probe("store.index")
	coverage := l.coverageCalls * probe("store.coverage")
	appendS := l.appendCalls * probe("store.append")
	rep.set("store.history_s", history, "s")
	rep.set("store.history_bytes", l.historyBytes, "bytes")
	rep.set("store.get_s", get("store.get").total/n+coverage, "s")
	per("store.gets", float64(l.gets), "count")
	rep.set("store.hit_ratio", frac(float64(l.hits), float64(l.gets)), "ratio")
	rep.set("store.index_s", index, "s")
	perSpan("store.put_s", "store.put")
	per("store.puts", float64(get("store.put").count), "count")
	per("store.put_bytes", float64(l.putBytes), "bytes")
	rep.set("store.append_s", appendS, "s")
	perSpan("store.open_s", "store.open")
	perSpan("report.render_s", "report.render")

	// What no span below the experiment layer's entry points covers,
	// less the store work priced by the probes, which happens there.
	entrySelf := (get("experiment.run").self + get("experiment.offline").self) / n
	rep.set("unattributed_s", entrySelf-history-index-coverage-appendS, "s")
	traced := median(l.walls)
	rep.set("trace.wall_s", traced, "s")
	rep.set("trace.overhead_ratio", frac(traced, untracedWall), "ratio")
	rep.infof("traced passes %d, untraced pass wall %.4fs, traced %.4fs", l.passes, untracedWall, traced)
}
