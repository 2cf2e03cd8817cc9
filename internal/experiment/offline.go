package experiment

import (
	"errors"
	"fmt"
	"strings"

	"simbench/internal/report"
	"simbench/internal/stats"
	"simbench/internal/store"
)

// MissingCellsError reports the cells a spec needs that the store
// cannot serve — the reason an offline render was refused. It lists
// every missing cell (with the orphaned content address when history
// knows one), so one failed render is a complete shopping list for
// the run that would fill the gaps.
type MissingCellsError struct {
	Spec    string
	Total   int
	Missing []store.CellMiss
}

func (e *MissingCellsError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec %s: %d of %d cells cannot be rendered offline:", e.Spec, len(e.Missing), e.Total)
	for _, m := range e.Missing {
		b.WriteString("\n  ")
		b.WriteString(m.String())
	}
	return b.String()
}

// RenderOffline renders a spec from the store alone: every cell must
// already be covered — present in run history with its blob still
// served by a store tier — and the tables/series print byte-identical
// to a warm online run, because they are reconstructed from the very
// measurements that run recorded. No engine is constructed, no cell
// is measured, and nothing is appended to history; a spec with
// missing cells fails with a per-cell report instead of silently
// measuring the difference.
func RenderOffline(sp Spec, o Options) error {
	return RenderOfflineAll([]Spec{sp}, o)
}

// RenderOfflineAll renders several specs offline against one store.
// The store resolves the cell index and, when some spec wants noise
// annotations, the full history they pool over, in one call: a local
// store decodes its history once for both, while a fleet store answers
// the index from one /index round trip instead of a download and
// re-parse of the whole history. Every spec shares the index and one
// memoized noise lookup. Rendering stops at the first failing spec,
// whose error lists all of its missing cells.
func RenderOfflineAll(specs []Spec, o Options) error {
	if o.Store == nil {
		return errors.New("experiment: offline rendering needs a store (-cache-dir or -remote)")
	}
	wantNoise := false
	for _, sp := range specs {
		wantNoise = wantNoise || sp.Noise
	}
	idx, runs, err := o.Store.CellIndexAndHistory(wantNoise)
	if err != nil {
		return err
	}
	var noise func(report.Record) *stats.Band
	if wantNoise && len(runs) > 0 {
		// The annotation source a warm online run would use right now:
		// the full recorded history (which, unlike the run that took a
		// cell's newest measurement, includes that measurement in the
		// pool — the byte-identity contract is with a warm rerun, not
		// with the measuring run's own output). Offline appends
		// nothing, so rendering twice gives the same bands.
		noise = store.NoiseLookup(runs, store.StatGate{})
	}
	for _, sp := range specs {
		if err := renderOffline(sp, o, idx, noise); err != nil {
			return err
		}
	}
	return nil
}

// renderOffline renders one spec from a pre-built cell index, with
// noise annotations from the shared lookup when the spec asks for them.
func renderOffline(sp Spec, o Options, idx map[store.CellRef]string, noise func(report.Record) *stats.Band) error {
	r, err := sp.resolve()
	if err != nil {
		return err
	}
	eff := sp.effective(o)
	m := r.matrix(&eff)
	results, missing, err := o.Store.CoverageOf(o.Context, idx, m.Jobs())
	if err != nil {
		return fmt.Errorf("spec %s: %w", sp.Name, err)
	}
	if len(missing) > 0 {
		return &MissingCellsError{Spec: sp.Name, Total: len(results), Missing: missing}
	}
	if !sp.Noise {
		noise = nil
	}
	return r.render(&eff, results, noise)
}
