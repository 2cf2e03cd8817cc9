package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"simbench/internal/isa"
)

type stubDev struct {
	name   string
	reads  int
	writes int
	val    uint32
	reject bool
}

func (d *stubDev) Name() string { return d.name }
func (d *stubDev) Read(off uint32, size int) (uint32, bool) {
	d.reads++
	return d.val + off, !d.reject
}
func (d *stubDev) Write(off uint32, size int, v uint32) bool {
	d.writes++
	d.val = v
	return !d.reject
}

func TestRAMReadWriteWord(t *testing.T) {
	b := NewBus(4096)
	b.WriteWordRAM(100, 0xCAFEBABE)
	if got := b.ReadWordRAM(100); got != 0xCAFEBABE {
		t.Errorf("got %#x", got)
	}
	// Little-endian layout.
	if b.RAM[100] != 0xBE || b.RAM[103] != 0xCA {
		t.Error("not little-endian")
	}
}

func TestReadWritePhysRAM(t *testing.T) {
	b := NewBus(4096)
	if f := b.WritePhys(8, 4, 0x11223344); f != isa.FaultNone {
		t.Fatal(f)
	}
	v, f := b.ReadPhys(8, 4)
	if f != isa.FaultNone || v != 0x11223344 {
		t.Errorf("read %#x fault %v", v, f)
	}
	if f := b.WritePhys(9, 1, 0xAB); f != isa.FaultNone {
		t.Fatal(f)
	}
	v, _ = b.ReadPhys(9, 1)
	if v != 0xAB {
		t.Errorf("byte read %#x", v)
	}
}

func TestUnbackedPhysFaults(t *testing.T) {
	b := NewBus(4096)
	if _, f := b.ReadPhys(100000, 4); f != isa.FaultBus {
		t.Errorf("read fault = %v", f)
	}
	if f := b.WritePhys(100000, 4, 1); f != isa.FaultBus {
		t.Errorf("write fault = %v", f)
	}
}

func TestRAMBoundary(t *testing.T) {
	b := NewBus(4096)
	if !b.IsRAM(4092, 4) {
		t.Error("last word should be RAM")
	}
	if b.IsRAM(4093, 4) {
		t.Error("straddling access is not RAM")
	}
	if b.IsRAM(0xFFFFFFFF, 4) {
		t.Error("wraparound must not be RAM")
	}
}

func TestDeviceDispatch(t *testing.T) {
	b := NewBus(4096)
	d := &stubDev{name: "d0", val: 7}
	b.Map(0xF0000000, 0x1000, d)

	v, f := b.ReadPhys(0xF0000010, 4)
	if f != isa.FaultNone || v != 7+0x10 {
		t.Errorf("read %#x fault %v", v, f)
	}
	if f := b.WritePhys(0xF0000000, 4, 42); f != isa.FaultNone {
		t.Fatal(f)
	}
	if d.val != 42 || d.reads != 1 || d.writes != 1 {
		t.Errorf("device state: %+v", d)
	}
}

func TestDeviceRejectionIsBusFault(t *testing.T) {
	b := NewBus(4096)
	b.Map(0xF0000000, 0x1000, &stubDev{name: "d", reject: true})
	if _, f := b.ReadPhys(0xF0000000, 4); f != isa.FaultBus {
		t.Errorf("fault = %v", f)
	}
	if f := b.WritePhys(0xF0000000, 4, 1); f != isa.FaultBus {
		t.Errorf("fault = %v", f)
	}
}

func TestOverlapPanics(t *testing.T) {
	b := NewBus(4096)
	b.Map(0xF0000000, 0x1000, &stubDev{name: "a"})
	assertPanics(t, func() { b.Map(0xF0000800, 0x1000, &stubDev{name: "b"}) })
	assertPanics(t, func() { b.Map(0x100, 0x100, &stubDev{name: "c"}) }) // overlaps RAM
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestFindRegion(t *testing.T) {
	b := NewBus(4096)
	d1 := &stubDev{name: "d1"}
	d2 := &stubDev{name: "d2"}
	b.Map(0xF0001000, 0x1000, d1)
	b.Map(0xF0000000, 0x1000, d2) // mapped out of order
	if r := b.Find(0xF0001FFF); r == nil || r.Dev != d1 {
		t.Error("find d1")
	}
	if r := b.Find(0xF0000000); r == nil || r.Dev != d2 {
		t.Error("find d2")
	}
	if b.Find(0xF0002000) != nil {
		t.Error("hole should not resolve")
	}
	if len(b.Regions()) != 2 {
		t.Error("regions")
	}
}

func TestLoadSegment(t *testing.T) {
	b := NewBus(4096)
	if err := b.LoadSegment(10, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if b.RAM[10] != 1 || b.RAM[12] != 3 {
		t.Error("segment not loaded")
	}
	if err := b.LoadSegment(4094, []byte{1, 2, 3}); err == nil {
		t.Error("expected overflow error")
	}
}

// Property: word write/read round-trips at any aligned RAM address.
func TestWordRoundTripProperty(t *testing.T) {
	b := NewBus(1 << 16)
	f := func(addr uint16, v uint32) bool {
		a := uint32(addr) &^ 3
		b.WriteWordRAM(a, v)
		return b.ReadWordRAM(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ReadPhys(WritePhys(x)) == x through the generic path too.
func TestPhysRoundTripProperty(t *testing.T) {
	b := NewBus(1 << 16)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a := r.Uint32() % (1<<16 - 4)
		a &^= 3
		v := r.Uint32()
		if f := b.WritePhys(a, 4, v); f != isa.FaultNone {
			t.Fatal(f)
		}
		got, f := b.ReadPhys(a, 4)
		if f != isa.FaultNone || got != v {
			t.Fatalf("addr %#x: got %#x want %#x", a, got, v)
		}
	}
}

func TestPrefaultKeepsRAMZeroAndClips(t *testing.T) {
	b := NewBus(3*isa.PageSize + 100)
	b.Prefault(isa.PageSize+7, 1<<30) // unaligned start, runs past the end
	b.Prefault(1<<31, isa.PageSize)   // entirely outside RAM
	for i, v := range b.RAM {
		if v != 0 {
			t.Fatalf("RAM[%#x] = %#x after Prefault", i, v)
		}
	}
}

func TestReleasedRAMPanics(t *testing.T) {
	b := NewBus(isa.PageSize)
	b.Release()
	if b.RAM != nil {
		t.Fatal("RAM still set after Release")
	}
	b.Release() // idempotent
	defer func() {
		if recover() == nil {
			t.Error("access after Release did not panic")
		}
	}()
	b.WriteWordRAM(0, 1)
}
