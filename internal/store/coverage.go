package store

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"simbench/internal/report"
	"simbench/internal/sched"
)

// CellRef identifies one matrix cell by its display coordinates and
// scale — the same identity history records carry. Offline rendering
// matches wanted cells against recorded runs by CellRef: unlike the
// content address, building one costs nothing (no engine is
// constructed to canonicalize a configuration), which is the point of
// rendering offline in the first place.
type CellRef struct {
	Benchmark string
	Engine    string
	Arch      string
	Iters     int64
	Repeats   int
	// Cores is the guest core count, normalized to >=1 — a cores
	// sweep measures the same benchmark at several counts, and those
	// are distinct cells (history records omit the field at 1, so
	// normalization keeps old single-core records addressable).
	Cores int
}

// RefOf returns the cell reference of a job, with iteration, repeat,
// and core counts normalized the way records and cache keys are.
func RefOf(j sched.Job) CellRef {
	iters, repeats := j.Effective()
	return CellRef{
		Benchmark: j.Bench.Name,
		Engine:    j.Engine.Name,
		Arch:      j.Arch.Name(),
		Iters:     iters,
		Repeats:   repeats,
		Cores:     j.EffectiveCores(),
	}
}

// RefOfRecord is RefOf for a history record. Exported because the
// simstored server builds its per-cell history index with exactly this
// identity — index lookups must agree with CoverageIndex byte for
// byte.
func RefOfRecord(c report.Record) CellRef {
	repeats := c.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	cores := c.Cores
	if cores <= 0 {
		cores = 1
	}
	return CellRef{Benchmark: c.Benchmark, Engine: c.Engine, Arch: c.Arch, Iters: c.Iters, Repeats: repeats, Cores: cores}
}

// String renders the reference the way diff output names cells.
func (c CellRef) String() string {
	s := fmt.Sprintf("%s/%s", c.Arch, c.Benchmark)
	if c.Cores > 1 {
		s += fmt.Sprintf(" @%dc", c.Cores)
	}
	s += fmt.Sprintf("/%s@%d", c.Engine, c.Iters)
	if c.Repeats > 1 {
		s += fmt.Sprintf("x%d", c.Repeats)
	}
	return s
}

// CellMiss explains one cell Coverage could not serve: a cell never
// recorded, or one whose recorded blob the store no longer holds
// (pruned by gc, or a deleted cache file).
type CellMiss struct {
	Ref CellRef
	// Key is the content address the newest matching record carried,
	// empty when history has no usable record for the cell.
	Key    string
	Reason string
}

func (m CellMiss) String() string { return m.Ref.String() + ": " + m.Reason }

// CoverageIndex maps every successful, content-addressed cell of the
// recorded runs to the key of its most recent measurement — the
// store-side index behind offline rendering.
//
// Runs recorded by a different host contribute nothing: a fleet's
// shared history holds other machines' absolute times, and an online
// run here would never serve them (content keys encode GOOS/GOARCH),
// so an offline render must not either — it would print another
// host's seconds as this host's evaluation. Failed cells contribute
// nothing, and neither do cells whose recorded key does not parse (a
// corrupted or foreign entry; handing such a key to Get would fall
// back to recomputing it, which constructs an engine — the one cost
// the offline path promises never to pay). Cached replays do count:
// their key still names the original measurement's blob. Later runs
// win.
func CoverageIndex(runs []RunRecord) map[CellRef]string {
	host := hostID()
	idx := make(map[CellRef]string)
	for _, rr := range runs {
		if rr.Host != "" && rr.Host != host {
			continue
		}
		for _, c := range rr.Cells {
			if c.Error != "" || c.Key == "" {
				continue
			}
			if _, ok := ParseKey(c.Key); !ok {
				continue
			}
			idx[RefOfRecord(c)] = c.Key
		}
	}
	return idx
}

// hostID is the host stamp NewRun writes into history records — the
// identity content keys encode, so coverage never serves another
// machine's absolute times as this one's.
func hostID() string { return runtime.GOOS + "/" + runtime.GOARCH }

// IndexCell is one entry of the simstored /index response: a cell's
// display coordinates plus the content address of its newest
// successful measurement for the requested host. The wire shape is
// shared by the server (which renders it from its history index) and
// the remote tier (which consumes it into a CoverageIndex-equivalent
// map).
type IndexCell struct {
	Benchmark string `json:"benchmark"`
	Engine    string `json:"engine"`
	Arch      string `json:"arch"`
	Iters     int64  `json:"iters"`
	Repeats   int    `json:"repeats"`
	// Cores is omitted for single-core cells, so servers predating the
	// cores axis keep serving the same bytes.
	Cores int    `json:"cores,omitempty"`
	Key   string `json:"key"`
}

// Ref returns the cell's map identity, normalizing the omitted
// single-core count the way RefOfRecord does.
func (c IndexCell) Ref() CellRef {
	cores := c.Cores
	if cores <= 0 {
		cores = 1
	}
	return CellRef{Benchmark: c.Benchmark, Engine: c.Engine, Arch: c.Arch, Iters: c.Iters, Repeats: c.Repeats, Cores: cores}
}

// CellIndex resolves the newest-successful-measurement map offline
// rendering covers from; see CellIndexAndHistory.
func (s *Store) CellIndex() (map[CellRef]string, error) {
	idx, _, err := s.CellIndexAndHistory(false)
	return idx, err
}

// CellIndexAndHistory resolves what an offline render reads from the
// store: the cell index coverage resolves from and, when withHistory
// is set, the full run history noise bands pool over. With a live
// remote tier the index comes from the server's compacted /index
// endpoint — one round trip of O(cells), not a download and re-parse
// of the whole fleet history — and the history is fetched only when
// asked for. Everywhere else (local and degraded stores, or a server
// predating the endpoint) the history is all there is: it is decoded
// once, and the index is built from those same runs, which are
// returned whether or not they were asked for.
func (s *Store) CellIndexAndHistory(withHistory bool) (idx map[CellRef]string, runs []RunRecord, err error) {
	if s.remote != nil && !s.remote.Down() {
		idx, ok, err := s.remote.CellIndex()
		if err != nil {
			return nil, nil, fmt.Errorf("store: remote index: %w", err)
		}
		if ok {
			if withHistory {
				if runs, err = s.History(); err != nil {
					return nil, nil, err
				}
			}
			return idx, runs, nil
		}
	}
	if runs, err = s.History(); err != nil {
		return nil, nil, err
	}
	return CoverageIndex(runs), runs, nil
}

// Coverage is Has over a whole matrix: it resolves every job of an
// expanded experiment to a stored measurement — the blob named by the
// newest successful history record of the same cell — and reports the
// cells it cannot serve. Served cells come back as fully reconstructed
// results (Cached=true), index-aligned with jobs, rendering
// byte-identically to the run that measured them; a non-empty missing
// list means the matrix cannot be rendered offline and says, cell by
// cell, why. No engine is constructed and nothing executes: keys come
// from history, blobs from the tier chain.
func (s *Store) Coverage(ctx context.Context, jobs []sched.Job) (results []sched.Result, missing []CellMiss, err error) {
	idx, err := s.CellIndex()
	if err != nil {
		return nil, nil, err
	}
	return s.CoverageOf(ctx, idx, jobs)
}

// CoverageOf is Coverage over pre-parsed history. A caller rendering
// several specs against one store (simreport -all -offline) parses
// the history — megabytes of JSONL locally, a full fleet download
// with a remote tier — once, builds its index once with
// CoverageIndex, and covers every matrix from it.
//
// Blob fetches run on a worker pool: on a store with a remote tier
// each cold cell is a network round trip, and the headline render-
// the-whole-evaluation case touches every cell of every figure —
// serialized, a fresh host would pay minutes of latency for a render
// that measures nothing (the same shape the scheduler's warmup
// presence scan already pools for). Cancelling ctx abandons the
// remaining fetches and returns its error: a user interrupting an
// offline render against a slow server must not sit through hundreds
// of timeouts.
func (s *Store) CoverageOf(ctx context.Context, idx map[CellRef]string, jobs []sched.Job) (results []sched.Result, missing []CellMiss, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results = make([]sched.Result, len(jobs))
	misses := make([]*CellMiss, len(jobs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				// Each cold fetch can cost a network round trip; a
				// cancelled render must not sit through the rest.
				if ctx.Err() != nil {
					continue
				}
				j := jobs[i]
				ref := RefOf(j)
				key, ok := idx[ref]
				if !ok {
					misses[i] = &CellMiss{Ref: ref, Reason: "no completed run in history"}
					continue
				}
				r, ok := s.Get(j, key)
				if !ok {
					misses[i] = &CellMiss{Ref: ref, Key: key,
						Reason: fmt.Sprintf("recorded blob %s is gone from the store", key)}
					continue
				}
				r.Index = i
				results[i] = r
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case feed <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(feed)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Missing cells report in matrix order no matter which worker hit
	// them.
	for _, m := range misses {
		if m != nil {
			missing = append(missing, *m)
		}
	}
	return results, missing, nil
}
