package main

// The benchmark's self-test, at tiny size: every metric prints with a
// unit, the simulated-statistics digest repeats across runs with
// different seeds, and a forced failure raises error_rate and the exit
// code. Run it with `go test` from this directory.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

type output struct {
	code   int
	res    result
	lines  []string
	digest string
	// printed maps each "metric <name> <value> <unit>" line's name to
	// its unit.
	printed map[string]string
}

func runTiny(t *testing.T, args ...string) output {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-tiny", "-seconds", "1", "-work", t.TempDir(), "-obscheck", obscheckPath}, args...)
	code := run(args, &stdout, &stderr)
	out := output{code: code, printed: map[string]string{}}
	out.lines = strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(out.lines[len(out.lines)-1]), &out.res); err != nil {
		t.Fatalf("run %v: last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	for _, line := range out.lines {
		f := strings.Fields(line)
		switch {
		case len(f) == 2 && f[0] == "sim_digest":
			out.digest = f[1]
		case len(f) >= 4 && f[0] == "metric":
			if _, err := strconv.ParseFloat(f[2], 64); err != nil {
				t.Errorf("metric line %q: value: %v", line, err)
			}
			out.printed[f[1]] = f[3]
		}
	}
	if t.Failed() || (code == 0) != out.res.Correct {
		t.Fatalf("run %v: exit %d, correct %v\nstderr:\n%s", args, code, out.res.Correct, stderr.String())
	}
	return out
}

// obscheckPath is the trace validator, built once for the test binary.
var obscheckPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	obscheckPath = filepath.Join(dir, "obscheck")
	code := 1
	if out, err := exec.Command("go", "build", "-o", obscheckPath, "simbench/internal/obs/obscheck").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build obscheck: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// declared reads BENCHMARK.json's metric names and units.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: %s not printed", what, name)
		case m.Unit != unit:
			t.Errorf("%s: %s printed with unit %q, declared %q", what, name, m.Unit, unit)
		}
	}
}

func TestEveryMetricPrintsWithUnit(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadNames() {
		w := w
		t.Run(w, func(t *testing.T) {
			out := runTiny(t, "-workload", w)
			if !out.res.Correct || out.res.Failed != 0 || out.res.Attempted < 1 {
				t.Fatalf("untraced run: %+v", out.res)
			}
			checkMetrics(t, "untraced", out.res.Metrics, endToEnd)
			for name, m := range out.res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			if out.printed["error_rate"] != "ratio" {
				t.Errorf("error_rate not printed with its unit: %v", out.printed)
			}
			want := []string{"wall_s", "mips.dbt"}
			if w == "replay" {
				want = []string{"wall_s", "warm_p50_ms", "warm_p90_ms", "offline_p50_ms", "offline_p90_ms"}
			}
			for _, name := range want {
				if out.printed[name] == "" {
					t.Errorf("%s not printed with a unit: %v", name, out.printed)
				}
			}
			if len(out.digest) != 32 {
				t.Errorf("sim_digest %q", out.digest)
			}

			traced := runTiny(t, "-workload", w, "-trace", "1")
			if !traced.res.Correct {
				t.Fatalf("traced run: %+v", traced.res)
			}
			checkMetrics(t, "traced", traced.res.Metrics, perLayer)
			if traced.digest != out.digest {
				t.Errorf("traced sim_digest %s, untraced %s", traced.digest, out.digest)
			}
		})
	}
}

func TestDigestRepeatsAcrossSeeds(t *testing.T) {
	a := runTiny(t, "-workload", "fig7-cold", "-seed", "3")
	b := runTiny(t, "-workload", "fig7-cold", "-seed", "4")
	if a.digest == "" || a.digest != b.digest {
		t.Fatalf("sim_digest differs across seeds: %q vs %q", a.digest, b.digest)
	}
}

func TestForcedFailureRaisesErrorRate(t *testing.T) {
	for _, w := range []string{"smp-scaling", "replay"} {
		out := runTiny(t, "-workload", w, "-force-failure")
		if out.code != 1 || out.res.Correct || out.res.Failed < 1 {
			t.Errorf("%s: forced failure: exit %d, %+v", w, out.code, out.res)
		}
		var rate string
		for _, line := range out.lines {
			if f := strings.Fields(line); len(f) >= 3 && f[0] == "metric" && f[1] == "error_rate" {
				rate = f[2]
			}
		}
		if v, err := strconv.ParseFloat(rate, 64); err != nil || v <= 0 {
			t.Errorf("%s: forced failure: error_rate %q, want > 0", w, rate)
		}
	}
}
