package store

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestNoiseBandsGolden pins, bit for bit, every band NoiseLookup
// derives from a real recorded history (testdata/history.jsonl: six
// cells, eight fresh runs each), at every history length that can
// gate, under a narrower window, and with the MAD margin shrunk so
// the bootstrap interval alone sets Lo and Hi. Floats print in their shortest
// round-trip form, so equal text is equal bits: the bootstrap may be
// reimplemented, but a recorded band must never move.
func TestNoiseBandsGolden(t *testing.T) {
	f, err := os.Open("testdata/history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs, skipped, err := DecodeHistory(f)
	if err != nil || skipped != 0 {
		t.Fatalf("decode: %d skipped, %v", skipped, err)
	}
	var b strings.Builder
	for _, g := range []StatGate{{}, {Window: 5}, {Widen: 1e-3}} {
		for k := 1; k <= len(runs); k++ {
			look := NoiseLookup(runs[:k], g)
			for _, c := range runs[k-1].Cells {
				band := look(c)
				if band == nil {
					continue
				}
				fmt.Fprintf(&b, "window=%d widen=%v runs=%d %s n=%d median=%v mad=%v lo=%v hi=%v\n",
					g.fill().Window, g.fill().Widen, k, CellName(c), band.N, band.Median, band.MAD, band.Lo, band.Hi)
			}
		}
	}
	const golden = "testdata/bands.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run TestNoiseBandsGolden -update): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("noise bands moved:\n--- got\n%s--- want\n%s", got, want)
	}
}
