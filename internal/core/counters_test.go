package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"simbench/internal/arch"
	"simbench/internal/bench"
	"simbench/internal/core"
	"simbench/internal/engine"
	"simbench/internal/engine/interp"
	"simbench/internal/enginetest"
	"simbench/internal/spec"
)

// TestEngineCountersGolden pins every modelled cost the engines report:
// for each registered benchmark on every engine (plus the profiling
// interpreter) and both architectures, at one iteration, it writes
// every non-zero engine.Stats field, the exception counts, the guest
// results, the console and the detailed engine's tick counter, and
// requires the bytes to match the committed golden. A refactor that
// moves no modelled cost leaves the file byte-identical; the
// differential tests cannot show that, since they compare only
// architectural state and instruction counts. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/core -run EngineCountersGolden.
func TestEngineCountersGolden(t *testing.T) {
	engines := append(enginetest.Engines(), interp.NewProfiling())
	var buf bytes.Buffer
	for _, sup := range arch.All() {
		for _, eng := range engines {
			for _, b := range registeredBenches() {
				r := core.NewRunner(eng, sup)
				if b.Category == core.CatSMP {
					r.Cores = 2
				}
				res, err := r.Run(b, 1)
				if err != nil {
					t.Errorf("%s/%s/%s: %v", sup.Name(), eng.Name(), b.Name, err)
					continue
				}
				fmt.Fprintf(&buf, "%s/%s/%s:", sup.Name(), eng.Name(), b.Name)
				writeStats(&buf, res.Stats)
				fmt.Fprintf(&buf, " exc=%v results=%v console=%q", res.Exc, res.GuestResults, res.Console)
				if tk, ok := eng.(interface{ Tick() uint64 }); ok {
					fmt.Fprintf(&buf, " tick=%d", tk.Tick())
				}
				buf.WriteByte('\n')
			}
		}
	}

	golden := filepath.Join("testdata", "engine_counters.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("engine counters diverge from golden at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("engine counters diverge from golden: %d lines, want %d", len(gl), len(wl))
	}
}

// registeredBenches returns every registered benchmark: the SimBench
// suite, its extensions, the SMP family and the SPEC-like workloads.
func registeredBenches() []*core.Benchmark {
	var benches []*core.Benchmark
	benches = append(benches, bench.Suite()...)
	benches = append(benches, bench.ExtSuite()...)
	benches = append(benches, bench.SMPSuite()...)
	return append(benches, spec.Suite()...)
}

// writeStats appends every non-zero field of st as " Name=value".
func writeStats(buf *bytes.Buffer, st engine.Stats) {
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		if n := v.Field(i).Uint(); n != 0 {
			fmt.Fprintf(buf, " %s=%d", v.Type().Field(i).Name, n)
		}
	}
}
