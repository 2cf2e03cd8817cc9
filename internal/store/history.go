package store

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"simbench/internal/report"
	"simbench/internal/sched"
)

// RunRecord is one completed matrix in the store's history: a
// timestamped, labelled set of cell records in matrix order, reusing
// the report package's machine-readable Record encoding (the same
// shape simbench -json emits).
type RunRecord struct {
	Time   time.Time       `json:"time"`
	Label  string          `json:"label"`
	Host   string          `json:"host"`
	Schema int             `json:"schema"`
	Cells  []report.Record `json:"cells"`
}

// NewRun flattens a completed matrix into a history record. Failed
// cells are included with their error text, mirroring FprintJSON, so
// history shows the whole matrix. Each cell is stamped with its
// content address, so history pins the blobs it references — simbase
// gc keeps exactly the blobs recent runs and baselines still name.
// Results from a store-backed scheduler run already carry their key
// (computed once per job); only results produced outside a store pay a
// fresh key computation here.
func NewRun(label string, results []sched.Result) RunRecord {
	rr := RunRecord{
		//simlint:allow determinism -- the run timestamp records when the measurement happened; it is metadata, never key material
		Time:   time.Now().UTC(),
		Label:  label,
		Host:   hostID(),
		Schema: SchemaVersion,
		Cells:  make([]report.Record, len(results)),
	}
	for i, r := range results {
		rr.Cells[i] = report.NewRecord(r)
		if r.Key != "" {
			rr.Cells[i].Key = r.Key
		} else {
			rr.Cells[i].Key = KeyFor(r.Job).String()
		}
	}
	return rr
}

func (s *Store) historyPath() string { return filepath.Join(s.dir, historyFileName) }

// LockedAppend appends one newline-terminated line to path under an
// exclusive lock, creating the file if needed. POSIX only guarantees
// O_APPEND writes atomic up to a small pipe-buffer-sized bound, and a
// full-matrix history line is megabytes — two unserialized processes
// appending concurrently can interleave and corrupt both lines. The
// lock serializes every history writer: local stores and the simstored
// /runs endpoint share this one append path.
func LockedAppend(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	unlock, err := lockExclusive(f)
	if err != nil {
		f.Close()
		return err
	}
	buf := make([]byte, 0, len(line)+1)
	buf = append(buf, line...)
	if len(buf) == 0 || buf[len(buf)-1] != '\n' {
		buf = append(buf, '\n')
	}
	_, werr := f.Write(buf)
	uerr := unlock()
	cerr := f.Close()
	return errors.Join(werr, uerr, cerr)
}

// AppendHistory records a completed matrix as one JSONL line — locally
// when the store has a disk tier, and to the remote server when one is
// attached (so a fleet's history is the union of its hosts' runs). It
// is a no-op for a purely in-process store, an empty matrix, or an
// aborted run (any cell cancelled): an aborted run would look like the
// latest complete run to `simbase save`, silently shrinking the
// baseline to the few cells that happened to finish. A remote append
// failure does not lose the run — the local line has already landed —
// but is reported so the caller can warn.
func (s *Store) AppendHistory(label string, results []sched.Result) error {
	if (s.dir == "" && s.remote == nil) || len(results) == 0 {
		return nil
	}
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded) {
			return nil
		}
	}
	line, err := json.Marshal(NewRun(label, results))
	if err != nil {
		return fmt.Errorf("store: history: %w", err)
	}
	var errs []error
	if s.dir != "" {
		if err := LockedAppend(s.historyPath(), line); err != nil {
			errs = append(errs, fmt.Errorf("store: history: %w", err))
		}
	}
	if s.remote != nil {
		if err := s.remote.AppendRun(line); err != nil {
			errs = append(errs, fmt.Errorf("store: remote history: %w", err))
		}
	}
	return errors.Join(errs...)
}

// DecodeHistory parses a stream of newline-delimited RunRecord JSON
// with the package's standard malformed-entry tolerance — the exported
// face of decodeHistory, for the simstored server's index rebuild (the
// index must skip exactly the lines every client skips).
func DecodeHistory(r io.Reader) (runs []RunRecord, skipped int, err error) {
	runs, skipped, _, err = decodeHistory(r)
	return runs, skipped, err
}

// decodeHistory parses a stream of newline-delimited RunRecord JSON.
// A malformed entry — the torn tail of a process killed mid-append, a
// corrupted line of any size — is counted and skipped by resyncing to
// the next newline, never aborting the rest of the stream. Unlike a
// line scanner there is no maximum entry size: records decode straight
// off the stream, so one oversized run cannot poison the whole
// history. err reports only real read failures.
func decodeHistory(r io.Reader) (runs []RunRecord, skipped int, firstBad, err error) {
	noteHistoryDecode()
	br := bufio.NewReaderSize(r, 1<<20)
	// pending carries the decoder's unconsumed look-ahead across a
	// resync, so each rebuilt decoder layers exactly one bytes.Reader
	// over br — depth stays constant no matter how many entries are
	// malformed (a per-skip wrapper would make a badly corrupted file
	// quadratic to read).
	var pending []byte
	for {
		var pr *bytes.Reader
		var src io.Reader = br
		if len(pending) > 0 {
			pr = bytes.NewReader(pending)
			src = io.MultiReader(pr, br)
		}
		dec := json.NewDecoder(src)
		for {
			var rr RunRecord
			derr := dec.Decode(&rr)
			if derr == io.EOF {
				return
			}
			if derr == nil {
				runs = append(runs, rr)
				continue
			}
			skipped++
			if firstBad == nil {
				firstBad = derr
			}
			// Resync to the next newline. The stream not yet consumed
			// by the failed decoder is: its buffered look-ahead, then
			// whatever of the carried pending bytes it never pulled,
			// then br — search the in-memory parts first, fall through
			// to a constant-memory skip on br.
			buffered, rerr := io.ReadAll(dec.Buffered())
			if rerr != nil {
				err = rerr
				return
			}
			if pr != nil && pr.Len() > 0 {
				rest := make([]byte, pr.Len())
				pr.Read(rest)
				buffered = append(buffered, rest...)
			}
			if i := bytes.IndexByte(buffered, '\n'); i >= 0 {
				pending = append([]byte(nil), buffered[i+1:]...)
			} else {
				pending = nil
				ok, serr := skipPastNewline(br)
				if serr != nil {
					err = serr
					return
				}
				if !ok {
					// The malformed entry was the unterminated tail.
					return
				}
			}
			break // rebuild the decoder past the bad entry
		}
	}
}

// skipPastNewline discards input through the next newline in constant
// memory regardless of line length, reporting whether a newline was
// found before the stream ended.
func skipPastNewline(br *bufio.Reader) (bool, error) {
	for {
		_, err := br.ReadSlice('\n')
		switch err {
		case nil:
			return true, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			return false, nil
		default:
			return false, err
		}
	}
}

// History returns every recorded run in append order — from the remote
// server when a remote tier is attached (the fleet's shared history),
// from the local disk tier otherwise. A missing history file is an
// empty history, not an error; a malformed entry (e.g. the torn tail
// of a process killed mid-append, or an entry of any size that does
// not parse) is skipped rather than poisoning the whole history —
// unless nothing at all parses, which reports the first parse error.
func (s *Store) History() ([]RunRecord, error) {
	if s.remote != nil {
		runs, err := s.remote.Runs()
		if err != nil {
			return nil, fmt.Errorf("store: remote history: %w", err)
		}
		return runs, nil
	}
	return s.localHistory()
}

// localHistory reads the disk tier's own history file, ignoring any
// attached remote. GC depends on this: it prunes *local* blobs, so it
// must judge them by what local history and baselines reference — on
// an active fleet the remote window is dominated by other hosts' runs
// and would wrongly condemn this host's cache.
func (s *Store) localHistory() ([]RunRecord, error) {
	if s.dir == "" {
		return nil, nil
	}
	f, err := os.Open(s.historyPath())
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: history: %w", err)
	}
	defer f.Close()
	runs, skipped, firstBad, err := decodeHistory(f)
	if err != nil {
		return nil, fmt.Errorf("store: history: %w", err)
	}
	if len(runs) == 0 && skipped > 0 {
		return nil, fmt.Errorf("store: history: no entry parses (%d malformed): %w", skipped, firstBad)
	}
	return runs, nil
}

// LatestWithPrior splits recorded history into the most recent run
// and everything recorded before it — the sample pool for the
// statistical gate, which must not include the run being judged. A
// non-empty label restricts both the latest run and the pool: the
// caller asked for that label's history, so off-label runs contribute
// neither the run under test nor its noise model.
func LatestWithPrior(runs []RunRecord, label string) (RunRecord, []RunRecord, error) {
	if label != "" {
		var filtered []RunRecord
		for _, rr := range runs {
			if rr.Label == label {
				filtered = append(filtered, rr)
			}
		}
		if len(filtered) == 0 {
			return RunRecord{}, nil, fmt.Errorf("store: no history entry labelled %q", label)
		}
		runs = filtered
	}
	if len(runs) == 0 {
		return RunRecord{}, nil, errors.New("store: history is empty")
	}
	return runs[len(runs)-1], runs[:len(runs)-1], nil
}

// LatestRun returns the most recent history entry, restricted to the
// given label when label is non-empty.
func (s *Store) LatestRun(label string) (RunRecord, error) {
	runs, err := s.History()
	if err != nil {
		return RunRecord{}, err
	}
	rr, _, err := LatestWithPrior(runs, label)
	return rr, err
}

// ValidBaselineName reports whether name is usable as a baseline name:
// a plain path element that cannot escape the baselines directory.
// Shared with the simstored server, so a name the CLI accepts is a
// name the fleet store accepts.
func ValidBaselineName(name string) bool {
	return name != "" && name == filepath.Base(name) &&
		!strings.HasPrefix(name, ".") && !strings.ContainsAny(name, `/\`)
}

func (s *Store) baselinePath(name string) (string, error) {
	if s.dir == "" {
		return "", errors.New("store: baselines need an on-disk store (-cache-dir)")
	}
	if !ValidBaselineName(name) {
		return "", fmt.Errorf("store: invalid baseline name %q", name)
	}
	return filepath.Join(s.dir, baselinesDirName, name+".json"), nil
}

// SaveBaseline stores a run under a name, for later diffing — on the
// remote server when a remote tier is attached (so every host of the
// fleet gates against the same baseline), locally otherwise.
func (s *Store) SaveBaseline(name string, rr RunRecord) error {
	if s.remote != nil {
		if !ValidBaselineName(name) {
			return fmt.Errorf("store: invalid baseline name %q", name)
		}
		data, err := json.MarshalIndent(rr, "", "  ")
		if err != nil {
			return fmt.Errorf("store: baseline: %w", err)
		}
		if err := s.remote.SaveBaseline(name, append(data, '\n')); err != nil {
			return fmt.Errorf("store: remote baseline: %w", err)
		}
		return nil
	}
	path, err := s.baselinePath(name)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rr, "", "  ")
	if err != nil {
		return fmt.Errorf("store: baseline: %w", err)
	}
	if err := AtomicWrite(path, append(data, '\n')); err != nil {
		return fmt.Errorf("store: baseline: %w", err)
	}
	return nil
}

// LoadBaseline returns a previously saved baseline, from the remote
// server when a remote tier is attached.
func (s *Store) LoadBaseline(name string) (RunRecord, error) {
	if s.remote != nil {
		if !ValidBaselineName(name) {
			return RunRecord{}, fmt.Errorf("store: invalid baseline name %q", name)
		}
		rr, ok, err := s.remote.LoadBaseline(name)
		if err != nil {
			return RunRecord{}, fmt.Errorf("store: remote baseline: %w", err)
		}
		if !ok {
			return RunRecord{}, fmt.Errorf("store: unknown baseline %q", name)
		}
		return rr, nil
	}
	return s.localLoadBaseline(name)
}

// localLoadBaseline reads a baseline from the disk tier, ignoring any
// attached remote (see localHistory for why GC needs this).
func (s *Store) localLoadBaseline(name string) (RunRecord, error) {
	path, err := s.baselinePath(name)
	if err != nil {
		return RunRecord{}, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return RunRecord{}, fmt.Errorf("store: unknown baseline %q", name)
		}
		return RunRecord{}, fmt.Errorf("store: baseline: %w", err)
	}
	var rr RunRecord
	if err := json.Unmarshal(data, &rr); err != nil {
		return RunRecord{}, fmt.Errorf("store: baseline %q: %w", name, err)
	}
	return rr, nil
}

// Baselines lists saved baseline names, sorted — the remote server's
// when a remote tier is attached.
func (s *Store) Baselines() ([]string, error) {
	if s.remote != nil {
		names, err := s.remote.Baselines()
		if err != nil {
			return nil, fmt.Errorf("store: remote baselines: %w", err)
		}
		sort.Strings(names)
		return names, nil
	}
	return s.localBaselines()
}

// localBaselines lists the disk tier's baseline names, ignoring any
// attached remote (see localHistory for why GC needs this).
func (s *Store) localBaselines() ([]string, error) {
	if s.dir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, baselinesDirName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: baselines: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasSuffix(name, ".json") && !strings.HasPrefix(name, ".") {
			names = append(names, strings.TrimSuffix(name, ".json"))
		}
	}
	sort.Strings(names)
	return names, nil
}
