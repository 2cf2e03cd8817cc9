package store

// HistoryDecodes reads the process-wide count of parsed history
// streams, so tests outside the package can assert how often a code
// path reads history.
func HistoryDecodes() float64 { return mHistoryDecodes.Value() }
