package store_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simbench/internal/experiment"
	"simbench/internal/store"
)

// TestRenderOfflineAllDecodesHistoryOnce: one offline render over a
// local store parses its history exactly once — the cell index and the
// noise pool come from the same decoded runs — and every spec shares
// one noise lookup without moving a byte: the combined render equals
// the specs rendered one by one.
func TestRenderOfflineAllDecodesHistoryOnce(t *testing.T) {
	noisy := experiment.Spec{
		Name:     "noisy",
		Renderer: experiment.RenderMatrix,
		Arches:   []string{"arm"},
		Benches:  []string{"mem.hot", "exc.syscall"},
		Engines:  []string{"interp", "v2.2.0"},
		Noise:    true,
	}
	plain := experiment.Spec{
		Name:     "plain",
		Renderer: experiment.RenderMatrix,
		Arches:   []string{"arm"},
		Benches:  []string{"mem.hot"},
		Engines:  []string{"interp", "v2.2.0"},
	}
	specs := []experiment.Spec{noisy, plain}
	dir := t.TempDir()
	opts := func(out *strings.Builder) experiment.Options {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return experiment.Options{Out: out, Scale: 2_000_000, SpecScale: 10_000, MinIters: 8, Repeats: 1, Store: st}
	}
	for _, sp := range specs {
		if err := experiment.Run(sp, opts(&strings.Builder{})); err != nil {
			t.Fatal(err)
		}
	}
	// Five more fresh measurements of the first run, a little apart,
	// give every noisy cell a real band.
	hist := filepath.Join(dir, "history.jsonl")
	data, err := os.ReadFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	var first store.RunRecord
	if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &first); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		rr := first
		rr.Cells = append(rr.Cells[:0:0], first.Cells...)
		for c := range rr.Cells {
			rr.Cells[c].KernelSeconds *= 1 + 0.01*float64(i)
		}
		line, err := json.Marshal(rr)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.LockedAppend(hist, line); err != nil {
			t.Fatal(err)
		}
	}

	var want strings.Builder
	for _, sp := range specs {
		if err := experiment.RenderOffline(sp, opts(&want)); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(want.String(), "±") {
		t.Fatalf("no noise band rendered:\n%s", want.String())
	}
	var got strings.Builder
	o := opts(&got)
	before := store.HistoryDecodes()
	if err := experiment.RenderOfflineAll(specs, o); err != nil {
		t.Fatal(err)
	}
	if n := store.HistoryDecodes() - before; n != 1 {
		t.Errorf("RenderOfflineAll decoded history %v times, want 1", n)
	}
	if got.String() != want.String() {
		t.Errorf("combined render differs from per-spec renders:\n--- combined\n%s\n--- per spec\n%s", got.String(), want.String())
	}
}
