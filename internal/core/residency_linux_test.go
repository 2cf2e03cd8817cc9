package core_test

import (
	"bufio"
	"fmt"
	"os"
	"syscall"
	"testing"
	"unsafe"

	"simbench/internal/arch"
	"simbench/internal/bench"
	"simbench/internal/core"
	"simbench/internal/engine"
	"simbench/internal/engine/interp"
	"simbench/internal/enginetest"
	"simbench/internal/machine"
	"simbench/internal/mem"
)

// residencyProbe wraps an engine and counts the guest-RAM pages the
// host has backed just before and just after the engine runs.
type residencyProbe struct {
	engine.Engine
	bus           *mem.Bus
	addr          uintptr // start of the guest RAM the engine ran on
	before, after int
	err           error
}

func (p *residencyProbe) Run(harts []*machine.Machine, limit uint64) (engine.Stats, error) {
	p.bus = harts[0].Bus
	p.addr = uintptr(unsafe.Pointer(&p.bus.RAM[0]))
	p.before, p.err = residentPages(p.bus)
	st, err := p.Engine.Run(harts, limit)
	if p.err == nil {
		p.after, p.err = residentPages(p.bus)
	}
	return st, err
}

// residentPages counts the host pages of b.RAM that are resident,
// using mincore(2).
func residentPages(b *mem.Bus) (int, error) {
	page := os.Getpagesize()
	vec := make([]byte, (len(b.RAM)+page-1)/page)
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE,
		uintptr(unsafe.Pointer(&b.RAM[0])), uintptr(len(b.RAM)), uintptr(unsafe.Pointer(&vec[0])))
	if errno != 0 {
		return 0, errno
	}
	n := 0
	for _, v := range vec {
		n += int(v & 1)
	}
	return n, nil
}

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

// TestPrefaultCoversGuestReach runs every registered benchmark on every
// engine and both architectures and requires that the guest backs no
// new RAM page while the engine runs: Runner.Run's prefault must cover
// everything the guest touches, or first-touch page faults would land
// in timed kernels.
func TestPrefaultCoversGuestReach(t *testing.T) {
	for _, sup := range arch.All() {
		for _, eng := range enginetest.Engines() {
			for _, b := range registeredBenches() {
				probe := &residencyProbe{Engine: eng}
				r := core.NewRunner(probe, sup)
				if b.Category == core.CatSMP {
					r.Cores = 2
				}
				if _, err := r.Run(b, 1); err != nil {
					t.Errorf("%s/%s/%s: %v", sup.Name(), eng.Name(), b.Name, err)
					continue
				}
				if probe.err != nil {
					t.Fatalf("mincore: %v", probe.err)
				}
				if probe.after != probe.before {
					t.Errorf("%s/%s/%s: %d resident guest-RAM pages before the engine ran, %d after",
						sup.Name(), eng.Name(), b.Name, probe.before, probe.after)
				}
			}
		}
	}
}

// TestRunnerUnmapsRAM pins the release path: the mapping is gone as
// soon as Run returns, with no garbage collection in between, and the
// Bus no longer points at it.
func TestRunnerUnmapsRAM(t *testing.T) {
	probe := &residencyProbe{Engine: interp.New()}
	b, err := bench.ByName("mem.hot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewRunner(probe, arch.ARM{}).Run(b, 1); err != nil {
		t.Fatal(err)
	}
	if probe.bus == nil {
		t.Fatal("engine never ran")
	}
	if probe.bus.RAM != nil {
		t.Error("Bus.RAM still set after Run returned")
	}
	if probe.before == 0 {
		t.Fatal("no resident pages seen during the run")
	}
	if mapped(t, probe.addr) {
		t.Errorf("guest RAM at %#x still mapped after Run returned", probe.addr)
	}
}
