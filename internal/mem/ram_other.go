//go:build !unix

package mem

// mapping is empty where guest RAM lives on the Go heap.
type mapping struct{}

// allocRAM allocates n zeroed bytes of guest RAM on the Go heap.
func allocRAM(n uint32) ([]byte, *mapping) { return make([]byte, n), nil }

func (m *mapping) free() {}
