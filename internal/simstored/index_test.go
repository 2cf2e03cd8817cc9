package simstored

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"simbench/internal/report"
	"simbench/internal/store"
)

// keyN is a distinct, syntactically valid content address per index.
func keyN(i int) string { return strings.Repeat(fmt.Sprintf("%02x", i), 32) }

func idxCell(benchName, key string) report.Record {
	return report.Record{Benchmark: benchName, Engine: "interp", Arch: "arm",
		Iters: 64, Repeats: 1, KernelSeconds: 0.1, Key: key}
}

func runLine(t *testing.T, host string, cells ...report.Record) []byte {
	t.Helper()
	b, err := json.Marshal(store.RunRecord{Label: "idx", Host: host, Schema: store.SchemaVersion, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fetchIndex(t *testing.T, base, host string) map[store.CellRef]string {
	t.Helper()
	resp := do(t, http.MethodGet, base+"/index?host="+url.QueryEscape(host), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /index: %s", resp.Status)
	}
	var cells []store.IndexCell
	if err := json.NewDecoder(resp.Body).Decode(&cells); err != nil {
		t.Fatal(err)
	}
	got := make(map[store.CellRef]string, len(cells))
	for _, c := range cells {
		got[c.Ref()] = c.Key
	}
	return got
}

// TestIndexEndpoint: /index serves, per host, exactly the map
// store.CoverageIndex would build from the full history — newest
// successful record per cell, unhosted records matching any host,
// failed and unkeyed cells invisible, foreign hosts invisible.
func TestIndexEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	me := runtime.GOOS + "/" + runtime.GOARCH

	// The index is meaningless without a host: content keys encode one.
	if resp := do(t, http.MethodGet, ts.URL+"/index", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("hostless /index: %s, want 400", resp.Status)
	}
	// Empty index is an empty JSON array, not null.
	resp := do(t, http.MethodGet, ts.URL+"/index?host="+url.QueryEscape(me), nil)
	if body := bodyOf(t, resp); strings.TrimSpace(body) != "[]" {
		t.Errorf("empty index body = %q, want []", body)
	}

	a1, a2, b1, c1, s2 := keyN(1), keyN(2), keyN(3), keyN(4), keyN(6)
	failed := idxCell("mem.cold", keyN(5))
	failed.Error = "boom"
	// The same benchmark at a different guest core count is a distinct
	// cell: it must neither shadow nor be shadowed by the 1-core entry.
	smp := idxCell("mem.hot", s2)
	smp.Cores = 2
	for _, line := range [][]byte{
		runLine(t, "", idxCell("mem.hot", a1)),                              // unhosted: any host's
		runLine(t, me, idxCell("mem.hot", a2), idxCell("mem.cold", b1)),     // newer run wins mem.hot
		runLine(t, "other/host", idxCell("mem.streaming", c1)),              // foreign host: invisible
		runLine(t, me, idxCell("exc.syscall", "not-a-content-key"), failed), // unparsable key, failed cell
		runLine(t, me, smp), // 2-core cell: own entry
	} {
		if resp := do(t, http.MethodPost, ts.URL+"/runs", line); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("POST run: %s", resp.Status)
		}
	}

	got := fetchIndex(t, ts.URL, me)
	f, err := os.Open(filepath.Join(srv.Dir(), "history.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs, skipped, err := store.DecodeHistory(f)
	if err != nil || skipped != 0 {
		t.Fatalf("decode history: %v (skipped %d)", err, skipped)
	}
	if want := store.CoverageIndex(runs); !reflect.DeepEqual(got, want) {
		t.Errorf("index disagrees with CoverageIndex:\n got %v\nwant %v", got, want)
	}
	if len(got) != 3 || got[store.RefOfRecord(idxCell("mem.hot", ""))] != a2 ||
		got[store.RefOfRecord(idxCell("mem.cold", ""))] != b1 ||
		got[store.RefOfRecord(smp)] != s2 {
		t.Errorf("index = %v, want mem.hot→newest key, mem.cold→%s, and the 2-core cell→%s", got, b1, s2)
	}

	// The foreign host's view merges its own records with the unhosted
	// ones — and sees none of this host's.
	other := fetchIndex(t, ts.URL, "other/host")
	if len(other) != 2 || other[store.RefOfRecord(idxCell("mem.streaming", ""))] != c1 ||
		other[store.RefOfRecord(idxCell("mem.hot", ""))] != a1 {
		t.Errorf("foreign host index = %v, want its own cell plus the unhosted one", other)
	}
}

// TestIndexCatchUpAndRebuild: appends that bypass POST /runs entirely —
// a colocated local writer flock-appending to the same directory — are
// folded in on the next lookup, and a fresh server over the directory
// rebuilds the identical index from the file alone.
func TestIndexCatchUpAndRebuild(t *testing.T) {
	srv, ts := newTestServer(t)
	me := runtime.GOOS + "/" + runtime.GOARCH
	if resp := do(t, http.MethodPost, ts.URL+"/runs",
		runLine(t, me, idxCell("mem.hot", keyN(1)))); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST run: %s", resp.Status)
	}

	line := runLine(t, me, idxCell("mem.cold", keyN(2)))
	if err := store.LockedAppend(filepath.Join(srv.Dir(), "history.jsonl"), line); err != nil {
		t.Fatal(err)
	}
	got := fetchIndex(t, ts.URL, me)
	if len(got) != 2 || got[store.RefOfRecord(idxCell("mem.cold", ""))] != keyN(2) {
		t.Errorf("index after direct append = %v, want the local writer's cell included", got)
	}

	srv2, err := New(srv.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := srv2.idx.lookup(me), srv.idx.lookup(me); !reflect.DeepEqual(a, b) {
		t.Errorf("rebuilt index differs:\n got %v\nwant %v", a, b)
	}
	if srv2.idx.cells() != srv.idx.cells() {
		t.Errorf("rebuilt index holds %d cells, live one %d", srv2.idx.cells(), srv.idx.cells())
	}
}

// exposition renders the server's metrics registry for wire-level
// assertions.
func exposition(t *testing.T, srv *Server) string {
	t.Helper()
	var sb strings.Builder
	if err := srv.Registry().WriteExposition(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// hasSample reports whether the exposition holds a nonzero sample with
// every given fragment on one line.
func hasSample(expo string, frags ...string) bool {
	for _, line := range strings.Split(expo, "\n") {
		ok := true
		for _, f := range frags {
			if !strings.Contains(line, f) {
				ok = false
				break
			}
		}
		if ok && !strings.HasSuffix(line, " 0") {
			return true
		}
	}
	return false
}

// TestRemoteRunsIncremental drives the real client against the real
// server: after the first History fetch, new appends arrive via 206
// tails and an unchanged stream costs a 304 — the status codes are read
// off the server's own request counters, so the proof is wire-level.
func TestRemoteRunsIncremental(t *testing.T) {
	srv, ts := newTestServer(t)
	postRun(t, ts.URL, `{"label":"seed-0","cells":[]}`)
	postRun(t, ts.URL, `{"label":"seed-1","cells":[]}`)

	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := store.NewRemoteTier(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	st.AttachRemote(rt)
	defer st.Close()

	runs, err := st.History()
	if err != nil || len(runs) != 2 {
		t.Fatalf("first History = %d runs, %v; want 2", len(runs), err)
	}

	postRun(t, ts.URL, `{"label":"tail-0","cells":[]}`)
	runs, err = st.History()
	if err != nil || len(runs) != 3 || runs[2].Label != "tail-0" {
		t.Fatalf("History after append = %d runs, %v; want the tail folded in", len(runs), err)
	}
	if expo := exposition(t, srv); !hasSample(expo, `route="/runs"`, `method="GET"`, `code="206"`) {
		t.Error("appended tail was not fetched as a 206 partial")
	}

	// Nothing new: the poll costs a 304 and the cache answers.
	runs, err = st.History()
	if err != nil || len(runs) != 3 {
		t.Fatalf("idle History = %d runs, %v", len(runs), err)
	}
	if expo := exposition(t, srv); !hasSample(expo, `route="/runs"`, `method="GET"`, `code="304"`) {
		t.Error("unchanged stream was not revalidated as a 304")
	}

	// Truncation behind the client's back: the generation flips, the
	// client refetches in full and converges on the fresh stream.
	if err := os.WriteFile(filepath.Join(srv.Dir(), "history.jsonl"),
		[]byte(`{"label":"fresh","cells":[]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	runs, err = st.History()
	if err != nil || len(runs) != 1 || runs[0].Label != "fresh" {
		t.Fatalf("History after truncation = %v, %v; want just the fresh run", runs, err)
	}
}

// TestRemoteCellIndex: Store.CellIndex over a live remote answers from
// the server's compacted /index and agrees exactly with the
// history-scan fallback a local store would compute.
func TestRemoteCellIndex(t *testing.T) {
	srv, ts := newTestServer(t)
	me := runtime.GOOS + "/" + runtime.GOARCH
	for i, host := range []string{me, "", "other/host"} {
		if resp := do(t, http.MethodPost, ts.URL+"/runs",
			runLine(t, host, idxCell("mem.hot", keyN(i+1)))); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("POST run: %s", resp.Status)
		}
	}

	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := store.NewRemoteTier(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	st.AttachRemote(rt)
	defer st.Close()

	got, err := st.CellIndex()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(srv.Dir(), "history.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs, _, err := store.DecodeHistory(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := store.CoverageIndex(runs); !reflect.DeepEqual(got, want) {
		t.Errorf("remote CellIndex = %v, want the CoverageIndex answer %v", got, want)
	}
	if expo := exposition(t, srv); !hasSample(expo, `route="/index"`, `code="200"`) {
		t.Error("CellIndex did not go through the /index endpoint")
	}
	// Asked for the history as well (an offline render with noise
	// bands), the store still takes the index from /index and streams
	// the runs alongside.
	idx, all, err := st.CellIndexAndHistory(true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx, got) || len(all) != len(runs) {
		t.Errorf("CellIndexAndHistory = %v and %d runs, want %v and %d runs", idx, len(all), got, len(runs))
	}
	if expo := exposition(t, srv); !hasSample(expo, `route="/index"`, `code="200"`, "} 2") {
		t.Error("CellIndexAndHistory did not go through the /index endpoint")
	}
}
