package mem

import (
	"bufio"
	"fmt"
	"os"
	"testing"
	"unsafe"
)

// mapped reports whether addr lies in any mapping of this process.
func mapped(t *testing.T, addr uintptr) bool {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var lo, hi uintptr
		if _, err := fmt.Sscanf(sc.Text(), "%x-%x", &lo, &hi); err == nil && lo <= addr && addr < hi {
			return true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return false
}

func TestRAMIsMappedUntilRelease(t *testing.T) {
	b := NewBus(8 << 20)
	if b.mapping == nil {
		t.Fatal("RAM is not an anonymous mapping")
	}
	addr := uintptr(unsafe.Pointer(&b.RAM[0]))
	b.Prefault(0, 1<<20)
	b.WriteWordRAM(0x1000, 0xCAFE)
	if !mapped(t, addr) {
		t.Fatalf("RAM at %#x not mapped", addr)
	}
	b.Release()
	if mapped(t, addr) {
		t.Errorf("RAM at %#x still mapped after Release", addr)
	}
}
