package platform

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"simbench/internal/machine"
)

// procSelf reads this process's mapping count, and its virtual and
// resident sizes in KiB.
func procSelf(t *testing.T) (maps, vmKB, rssKB int) {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	maps = strings.Count(string(data), "\n")
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		switch fields[0] {
		case "VmSize:":
			vmKB, _ = strconv.Atoi(fields[1])
		case "VmRSS:":
			rssKB, _ = strconv.Atoi(fields[1])
		}
	}
	return maps, vmKB, rssKB
}

// settle collects garbage until finalizers have had a chance to run.
func settle() {
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDroppedPlatformsFreeRAM builds platforms outside any runner,
// touches some of each one's RAM, and drops them without Release. The
// Bus sits in a reference cycle through the interrupt controller's
// IRQ callbacks; only a finalizer outside that cycle can unmap the
// RAM, and without one every platform would leak its mapping.
func TestDroppedPlatformsFreeRAM(t *testing.T) {
	const n = 500
	const touched = 64 << 10
	settle()
	maps0, vm0, rss0 := procSelf(t)
	for i := 0; i < n; i++ {
		p := NewSMP(machine.ProfileARM, DefaultRAMSize, 2)
		p.M.Bus.Prefault(0, touched)
		p.M.Bus.WriteWordRAM(0x100, uint32(i))
	}
	var maps, vm, rss int
	for deadline := time.Now().Add(10 * time.Second); ; {
		settle()
		maps, vm, rss = procSelf(t)
		if vm-vm0 < n*DefaultRAMSize>>10/4 || time.Now().After(deadline) {
			break
		}
	}
	t.Logf("after %d dropped platforms: mappings %d → %d, VmSize %d → %d KiB, VmRSS %d → %d KiB",
		n, maps0, maps, vm0, vm, rss0, rss)
	if maps > maps0+16 {
		t.Errorf("mappings grew from %d to %d", maps0, maps)
	}
	// A leak keeps n×32 MiB mapped and n×64 KiB resident; allow the
	// heap a few MiB of growth.
	if vm-vm0 > 256<<10 {
		t.Errorf("VmSize grew by %d KiB", vm-vm0)
	}
	if rss-rss0 > n*touched>>10/4 {
		t.Errorf("VmRSS grew by %d KiB", rss-rss0)
	}
}
