// Package platform assembles a concrete simulated board — the "VexBoard"
// — from the machine and device packages: RAM at physical 0, a UART, an
// interrupt controller with a software-raisable line, a timer, the safe
// benchmark device and the benchmark-control port. It is the analogue of
// the paper's platform support package: everything a SimBench port needs
// to know about the board (memory layout, how to raise a software
// interrupt, where the safe device lives) is defined here.
package platform

import (
	"bytes"
	"fmt"

	"simbench/internal/asm"
	"simbench/internal/device"
	"simbench/internal/isa"
	"simbench/internal/machine"
)

// VexBoard physical memory map. RAM occupies [0, RAMSize); devices sit
// high in the address space, each in its own 4 KiB page so that the MMU
// can map them individually.
const (
	DefaultRAMSize = 32 << 20 // 32 MiB

	UARTBase  = 0xF0000000
	ICBase    = 0xF0010000
	TimerBase = 0xF0020000
	SafeBase  = 0xF0030000
	CtlBase   = 0xF0040000

	RegionSize = isa.PageSize
)

// Platform is a fully wired VexBoard: N harts over one shared
// physical bus and device map. M is the boot hart (Cores[0]); every
// hart shares the RAM, the devices, the coprocessors and the
// exclusive monitor, and has its own interrupt line on the IC.
type Platform struct {
	M       *machine.Machine
	Cores   []*machine.Machine
	UART    *device.UART
	IC      *device.IntController
	Timer   *device.Timer
	Safe    *device.SafeDev
	Ctl     *device.BenchCtl
	Coproc  *device.SafeCoproc
	Console bytes.Buffer
}

// New builds a single-core VexBoard around a new machine of the given
// profile.
func New(profile machine.Profile, ramSize uint32) *Platform {
	return NewSMP(profile, ramSize, 1)
}

// NewSMP builds a VexBoard hosting cores harts. Hart 0 is the boot
// hart; secondaries share its bus and identify themselves through the
// hart-id field of CPUID. The interrupt controller drives one IRQ line
// per hart (shared device lines route to hart 0, the software IPI
// doorbell reaches every hart), and guest TLB maintenance on any hart
// is broadcast to all of them.
func NewSMP(profile machine.Profile, ramSize uint32, cores int) *Platform {
	if cores < 1 {
		cores = 1
	}
	if cores > machine.MaxHarts {
		panic(fmt.Sprintf("platform: %d cores exceeds the %d-hart limit", cores, machine.MaxHarts))
	}
	m := machine.New(profile, ramSize)
	p := &Platform{M: m, Cores: []*machine.Machine{m}}
	p.UART = &device.UART{W: &p.Console}
	p.IC = device.NewIntController(m.SetIRQLine)
	p.Timer = device.NewTimer(p.IC)
	p.Safe = &device.SafeDev{}
	p.Ctl = &device.BenchCtl{}
	p.Coproc = &device.SafeCoproc{}

	m.Bus.Map(UARTBase, RegionSize, p.UART)
	m.Bus.Map(ICBase, RegionSize, p.IC)
	m.Bus.Map(TimerBase, RegionSize, p.Timer)
	m.Bus.Map(SafeBase, RegionSize, p.Safe)
	m.Bus.Map(CtlBase, RegionSize, p.Ctl)
	// The timer is instruction-clocked off the boot hart only, so its
	// behaviour — and every timer-driven benchmark — is independent of
	// how many other cores the board hosts.
	m.TickFn = p.Timer.Tick
	m.Coprocs[isa.CPSafe] = p.Coproc

	for hart := 1; hart < cores; hart++ {
		sec := machine.NewSecondary(m, hart)
		p.IC.AddOutput(sec.SetIRQLine)
		p.Cores = append(p.Cores, sec)
	}
	if cores > 1 {
		for _, c := range p.Cores {
			c.SetShootdown(p.shootPage, p.shootAll)
		}
	}
	return p
}

// shootPage broadcasts a guest TLBI to every hart's listeners.
func (p *Platform) shootPage(va uint32) {
	for _, c := range p.Cores {
		c.InvalidatePageTLBs(va)
	}
}

// shootAll broadcasts a guest TLBIA to every hart's listeners.
func (p *Platform) shootAll() {
	for _, c := range p.Cores {
		c.InvalidateAllTLBs()
	}
}

// LoadProgram loads an assembled image into the shared RAM and records
// its entry point on every hart, so a Reset starts them all at _start.
func (p *Platform) LoadProgram(prog *asm.Program) error {
	if err := p.M.LoadProgram(prog); err != nil {
		return err
	}
	for _, c := range p.Cores[1:] {
		c.SetEntry(prog.Entry)
	}
	return nil
}

// Reset resets every hart to the architectural reset state.
func (p *Platform) Reset() {
	for _, c := range p.Cores {
		c.Reset()
	}
}

// Release frees the guest RAM now rather than when the platform is
// garbage collected. The platform must not run afterwards.
func (p *Platform) Release() { p.M.Bus.Release() }

// Harts returns all cores, boot hart first — the slice engines run.
func (p *Platform) Harts() []*machine.Machine { return p.Cores }

// Default builds a VexBoard with the default RAM size.
func Default(profile machine.Profile) *Platform {
	return New(profile, DefaultRAMSize)
}

// ConsoleString returns everything the guest printed to the UART.
func (p *Platform) ConsoleString() string { return p.Console.String() }
