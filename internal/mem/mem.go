// Package mem provides the guest physical memory system: a flat RAM
// array plus a bus that dispatches memory-mapped I/O accesses to
// devices. Engines access RAM directly on their fast paths and fall
// back to the bus for device regions, mirroring how real full-system
// simulators split "RAM-backed" from "I/O" physical addresses.
package mem

import (
	"fmt"
	"sort"

	"simbench/internal/isa"
)

// Device is the handler for a memory-mapped I/O region. Offsets are
// relative to the region base. The boolean result reports whether the
// access was accepted; a rejected access becomes a bus fault.
type Device interface {
	Name() string
	Read(off uint32, size int) (uint32, bool)
	Write(off uint32, size int, v uint32) bool
}

// Region is a device mapping on the bus.
type Region struct {
	Base uint32
	Size uint32
	Dev  Device
}

// Bus is the guest physical address space: RAM at [0, len(RAM)) and any
// number of non-overlapping device regions above it.
type Bus struct {
	// RAM is guest physical memory. On unix it is an anonymous mapping
	// outside the Go heap, unmapped by Release or once the Bus is
	// garbage collected, so the slice must never outlive its Bus:
	// index it through the Bus (m.Bus.RAM[pa]) at every access, and
	// never keep a copy or a subslice of it.
	RAM     []byte
	regions []Region
	mapping *mapping // owns RAM when it is mapped; nil on the heap
}

// NewBus creates a bus with ramSize bytes of zeroed RAM at physical
// address 0. Where the host allows it, pages are backed only when first
// touched; see Prefault.
func NewBus(ramSize uint32) *Bus {
	ram, m := allocRAM(ramSize)
	return &Bus{RAM: ram, mapping: m}
}

// Prefault makes the host back every RAM page in [pa, pa+size)
// (clipped to RAM) now, so that no first-touch page fault lands inside
// a timed guest kernel. It stores a zero into each page, so it belongs
// before anything is loaded there.
func (b *Bus) Prefault(pa, size uint32) {
	end := uint64(pa) + uint64(size)
	if end > uint64(len(b.RAM)) {
		end = uint64(len(b.RAM))
	}
	for a := uint64(pa &^ isa.PageMask); a < end; a += isa.PageSize {
		b.RAM[a] = 0
	}
}

// Release frees RAM now instead of when the Bus is garbage collected.
// RAM becomes nil, so a later access panics instead of touching freed
// memory.
func (b *Bus) Release() {
	b.RAM = nil
	if b.mapping != nil {
		b.mapping.free()
		b.mapping = nil
	}
}

// Map attaches a device region. It panics on overlap with RAM or
// another region: the memory map is a static platform property and a
// bad one is a programming error.
func (b *Bus) Map(base, size uint32, d Device) {
	if base < uint32(len(b.RAM)) {
		panic(fmt.Sprintf("mem: device %s at %#x overlaps RAM", d.Name(), base))
	}
	for _, r := range b.regions {
		if base < r.Base+r.Size && r.Base < base+size {
			panic(fmt.Sprintf("mem: device %s at %#x overlaps %s", d.Name(), base, r.Dev.Name()))
		}
	}
	b.regions = append(b.regions, Region{base, size, d})
	sort.Slice(b.regions, func(i, j int) bool { return b.regions[i].Base < b.regions[j].Base })
}

// Regions returns the device map (for reporting).
func (b *Bus) Regions() []Region { return b.regions }

// IsRAM reports whether a size-byte access at pa lies entirely in RAM.
func (b *Bus) IsRAM(pa uint32, size int) bool {
	return uint64(pa)+uint64(size) <= uint64(len(b.RAM))
}

// Find locates the device region containing pa, or nil.
func (b *Bus) Find(pa uint32) *Region {
	for i := range b.regions {
		r := &b.regions[i]
		if pa >= r.Base && pa-r.Base < r.Size {
			return r
		}
	}
	return nil
}

// ReadPhys performs a physical read of size 1 or 4 bytes.
func (b *Bus) ReadPhys(pa uint32, size int) (uint32, isa.FaultCode) {
	if b.IsRAM(pa, size) {
		if size == 4 {
			return b.ReadWordRAM(pa), isa.FaultNone
		}
		return uint32(b.RAM[pa]), isa.FaultNone
	}
	if r := b.Find(pa); r != nil {
		if v, ok := r.Dev.Read(pa-r.Base, size); ok {
			return v, isa.FaultNone
		}
	}
	return 0, isa.FaultBus
}

// WritePhys performs a physical write of size 1 or 4 bytes.
func (b *Bus) WritePhys(pa uint32, size int, v uint32) isa.FaultCode {
	if b.IsRAM(pa, size) {
		if size == 4 {
			b.WriteWordRAM(pa, v)
		} else {
			b.RAM[pa] = byte(v)
		}
		return isa.FaultNone
	}
	if r := b.Find(pa); r != nil {
		if r.Dev.Write(pa-r.Base, size, v) {
			return isa.FaultNone
		}
	}
	return isa.FaultBus
}

// ReadWordRAM reads a little-endian word that is known to be in RAM.
func (b *Bus) ReadWordRAM(pa uint32) uint32 {
	d := b.RAM[pa : pa+4 : pa+4]
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24
}

// WriteWordRAM writes a little-endian word that is known to be in RAM.
func (b *Bus) WriteWordRAM(pa uint32, v uint32) {
	d := b.RAM[pa : pa+4 : pa+4]
	d[0] = byte(v)
	d[1] = byte(v >> 8)
	d[2] = byte(v >> 16)
	d[3] = byte(v >> 24)
}

// LoadSegment copies data into RAM at addr; it fails if the segment
// does not fit, since a truncated guest image is unusable.
func (b *Bus) LoadSegment(addr uint32, data []byte) error {
	if uint64(addr)+uint64(len(data)) > uint64(len(b.RAM)) {
		return fmt.Errorf("mem: segment at %#x (%d bytes) exceeds RAM size %#x", addr, len(data), len(b.RAM))
	}
	copy(b.RAM[addr:], data)
	return nil
}
