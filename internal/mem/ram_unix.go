//go:build unix

package mem

import (
	"runtime"
	"syscall"
)

// mapping owns guest RAM held in an anonymous private mapping, which
// the kernel backs with zero pages only where they are touched, so a
// fresh Bus costs nothing for RAM the guest never reaches. It holds
// nothing but the mapped slice: the Bus itself sits in a reference
// cycle (Bus → interrupt controller → IRQ callback → Machine → Bus),
// and a finalizer on an object in a cycle never runs, so the unmap
// finalizer lives here, on an object no cycle reaches.
type mapping struct{ b []byte }

// allocRAM maps n zeroed bytes of guest RAM. If the kernel refuses the
// mapping (or n is zero) it falls back to the Go heap, which behaves
// the same but is cleared eagerly.
func allocRAM(n uint32) ([]byte, *mapping) {
	b, err := syscall.Mmap(-1, 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, n), nil
	}
	m := &mapping{b: b}
	runtime.SetFinalizer(m, (*mapping).unmap)
	return b, m
}

// free unmaps now and drops the finalizer.
func (m *mapping) free() {
	runtime.SetFinalizer(m, nil)
	m.unmap()
}

func (m *mapping) unmap() {
	if m.b != nil {
		// Munmap of a range this handle mapped fails only on a bad
		// range, which nothing here can produce or recover from.
		_ = syscall.Munmap(m.b)
		m.b = nil
	}
}
