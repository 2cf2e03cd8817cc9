// Command perfbench is the repository's benchmark. It runs one named
// workload from one process through the public entry points the CLIs
// use — experiment.Run and experiment.RenderOfflineAll over a disk
// store.Store, one scheduler worker — checks that every output is
// correct, and prints its metrics.
//
// With -trace 0 it prints the end-to-end metrics, measured with
// tracing off. With -trace 1 it first times a few untraced passes,
// then traced passes whose spans (recorded by this program around its
// calls into each layer, plus the scheduler's own spans) are written
// in the internal/obs Chrome trace format, validated with obscheck,
// and reduced to the per-layer metrics.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it give the
// host context, the seed, workload-specific figures and sim_digest.
//
// Run it from the repository root; run.sh builds it first:
//
//	bash perfbench/run.sh --workload fig7-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// tiny shrinks every workload to a few seconds for the self-test.
	tiny bool
	// fail forces one correctness check to fail, proving that a
	// failure reaches failed, error_rate and the exit code.
	fail     bool
	work     string
	obscheck string
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back: the contract counts, the
// metrics for the JSON line, and informational lines printed before
// it (metrics that apply only to some workloads, the digest).
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	info              []string
	digest            string
	// mips sums, per engine class, retired instructions and seconds
	// inside engine.Run over the measured cells.
	mips map[string]*[2]float64
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// problem records a failed correctness check.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: permutes bench order (cold workloads) or pass order (replay)")
	fs.IntVar(&cfg.seconds, "seconds", 20, "how long to keep starting measured passes")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.BoolVar(&cfg.tiny, "tiny", false, "shrink the workload to seconds (self-test size)")
	fs.BoolVar(&cfg.fail, "force-failure", false, "make one correctness check fail (self-test)")
	fs.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for stores and traces")
	fs.StringVar(&cfg.obscheck, "obscheck", "", "path to the obscheck binary that validates the trace (required with -trace 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	// One scheduler worker keeps one P busy; a second P would only run
	// the garbage collector alongside it, and that CPU time would land
	// on whichever cell happened to be running. One P serializes it,
	// which made per-cell CPU times repeatable.
	runtime.GOMAXPROCS(1)
	runWorkload, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	case cfg.seconds < 1:
		fmt.Fprintf(stderr, "perfbench: -seconds must be at least 1\n")
		return 2
	case cfg.trace && cfg.obscheck == "":
		fmt.Fprintf(stderr, "perfbench: -trace 1 needs -obscheck\n")
		return 2
	}

	work, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(work)
	cfg.work = work

	host := hostContext()
	fmt.Fprintf(stdout, "host %s\n", host)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d\n", cfg.workload, cfg.seed, cfg.seconds, trace)

	rep, err := runWorkload(&cfg, stderr)
	if err != nil {
		// Set-up itself failed: there is no measurement to report.
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	if !cfg.trace {
		// Metrics that apply only to this workload; the contract's JSON
		// line carries the end-to-end metrics every workload shares.
		rep.infof("metric error_rate %.6f ratio (%d of %d operations failed)", ratio(rep.failed, rep.attempted), rep.failed, rep.attempted)
	}
	for _, line := range rep.info {
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "sim_digest %s\n", rep.digest)
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}

	res := result{
		Correct:   rep.failed == 0 && len(rep.problems) == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	names := endToEnd
	if cfg.trace {
		names = perLayerNames()
	}
	for _, name := range names {
		m, ok := rep.metrics[name]
		if !ok {
			res.Correct = false
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", name)
			continue
		}
		res.Metrics[name] = m
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd are the metrics of an untraced run, in print order. Every
// workload reports each of them.
var endToEnd = []string{"cpu_s", "setup_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
