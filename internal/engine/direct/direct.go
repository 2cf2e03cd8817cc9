// Package direct implements the direct-execution engine used in two
// modes, covering the last two columns of the paper's Fig. 4:
//
//   - Native mode models bare-metal hardware: translation through a
//     flat "hardware TLB" with O(1) flushes, exceptions vectoring
//     straight into the guest, devices at direct cost.
//   - Virt mode models hardware-assisted virtualization (QEMU-KVM):
//     identical on the compute and memory paths, but every sensitive
//     operation — device MMIO, coprocessor access, interrupt
//     injection, and (on the x86 profile) undefined instructions —
//     takes a VM exit through a trap-and-emulate layer with full vCPU
//     state save/restore.
//
// The shared fast path is what makes both modes far faster than any
// software-MMU engine, and the exit path is what reproduces the
// paper's finding that KVM matches native except on I/O, software
// interrupts and (x86) undefined instructions.
package direct

import (
	"simbench/internal/engine"
	"simbench/internal/engine/sem"
	"simbench/internal/isa"
	"simbench/internal/machine"
)

// Mode selects native-hardware or virtualized behaviour.
type Mode uint8

// Modes.
const (
	ModeNative Mode = iota
	ModeVirt
)

func (m Mode) String() string {
	if m == ModeVirt {
		return "virt"
	}
	return "native"
}

const (
	vaPages   = 1 << 20 // flat table covers the whole 4 GiB VA space
	hwTLBSize = 512     // modelled hardware TLB capacity (Cortex-A15 L2 TLB scale)

	// Flat-table entries hold a page-aligned physical base with the
	// sem permission flags in the free low bits.
	flagMask = uint32(sem.Write | sem.User | sem.RAM)
)

// hart is the per-core slice of engine state: each simulated core has
// its own hardware TLB, decode cache and fetch fast path, mirroring
// the per-CPU structures of real hardware.
type hart struct {
	m *machine.Machine

	// Flat hardware translation table: entry valid iff ep matches the
	// current epoch; a full flush is a single epoch increment.
	off   []uint32
	ep    []uint32
	epoch uint32

	// Hardware TLBs have finite capacity: fills go through a FIFO ring
	// of hwTLBSize live entries, evicting the oldest — so workloads
	// whose footprint exceeds the TLB keep missing, as on silicon.
	ring     [hwTLBSize]uint32
	ringNext int

	code sem.DecodeCache

	// One-entry fetch fast path: hardware fetches from the current
	// page without any software structure in the way, so the common
	// case must be a single compare.
	lastFetchVP uint32 // vpage+1 of the last fetch (0 = invalid)
	lastDP      *sem.DecodedPage
	lastKernel  bool // privilege level the fast path was validated for

	insns uint64 // retired instructions on this hart
}

// Direct is the direct-execution engine.
type Direct struct {
	mode  Mode
	m     *machine.Machine // current hart's machine
	h     *hart            // current hart
	harts []*hart
	st    engine.Stats

	// VM-exit machinery (virt mode); scratch shared across harts, as a
	// single hypervisor instance serves the whole VM.
	exitFrame struct {
		regs       [isa.NumRegs]uint32
		ctrl       [isa.NumCtrlRegs]uint32
		psr        uint32
		eptScratch [64]uint32
		shadow     [512]uint32 // second-stage translation shadow
	}
}

// New returns a direct-execution engine in the given mode.
func New(mode Mode) *Direct { return &Direct{mode: mode} }

// Name implements engine.Engine.
func (e *Direct) Name() string { return e.mode.String() }

// Mode returns the engine mode.
func (e *Direct) Mode() Mode { return e.mode }

// Features implements engine.Engine.
func (e *Direct) Features() engine.Features {
	if e.mode == ModeVirt {
		return engine.Features{
			ExecutionModel: "Direct",
			MemoryAccess:   "Direct",
			CodeGeneration: "None",
			CtrlFlowInter:  "Direct",
			CtrlFlowIntra:  "Direct",
			Interrupts:     "Via Emulation Layer",
			SyncExceptions: "Direct",
			UndefInsn:      "Hypercall",
		}
	}
	return engine.Features{
		ExecutionModel: "Direct",
		MemoryAccess:   "Direct",
		CodeGeneration: "None",
		CtrlFlowInter:  "Direct",
		CtrlFlowIntra:  "Direct",
		Interrupts:     "Direct",
		SyncExceptions: "Direct",
		UndefInsn:      "Direct",
	}
}

// InvalidatePage implements machine.TLBListener.
func (h *hart) InvalidatePage(va uint32) {
	h.ep[va>>isa.PageShift] = 0
	if va>>isa.PageShift+1 == h.lastFetchVP {
		h.lastFetchVP = 0
	}
}

// InvalidateAll implements machine.TLBListener. A hardware-wide flush
// is a single epoch bump.
func (h *hart) InvalidateAll() {
	h.epoch++
	if h.epoch == 0 { // epoch wrapped: really clear
		for i := range h.ep {
			h.ep[i] = 0
		}
		h.epoch = 1
	}
	h.lastFetchVP = 0
}

func (e *Direct) reset(harts []*machine.Machine) {
	e.st = engine.Stats{}
	e.harts = e.harts[:0]
	for _, m := range harts {
		h := &hart{m: m}
		h.off = make([]uint32, vaPages)
		h.ep = make([]uint32, vaPages)
		// The epoch starts above zero so no stale entry from the
		// zero-valued table can appear valid.
		h.InvalidateAll()
		h.code = sem.NewDecodeCache(m.Bus)
		m.ClearTLBListeners()
		m.AddTLBListener(h)
		e.harts = append(e.harts, h)
	}
	e.attach(e.harts[0])
}

// attach makes h the current hart for the translate fast paths.
func (e *Direct) attach(h *hart) {
	e.h = h
	e.m = h.m
}

// vmExit models a hardware VM exit: the world switch saves the
// complete vCPU state, the hypervisor classifies the exit reason,
// synchronises its second-stage translation shadow, dispatches into
// the emulation layer, and finally restores state and re-enters the
// guest. The work is real — full register-file and control-register
// copies plus two sweeps over a 512-entry shadow structure — putting
// one exit in the microsecond range, orders of magnitude above a
// directly executed instruction, exactly the gap the paper measures
// between QEMU-KVM and native hardware on I/O and interrupt
// benchmarks.
func (e *Direct) vmExit(reason uint32) {
	cpu := &e.m.CPU
	f := &e.exitFrame
	// World switch out: save the vCPU.
	f.regs = cpu.Regs
	f.ctrl = cpu.Ctrl
	f.psr = cpu.PSR()
	// Hypervisor: decode the exit reason and synchronise the
	// second-stage shadow (dirty scan + rebuild pass).
	acc := reason*2654435761 + f.psr
	for i := range f.shadow {
		acc = acc*1664525 + 1013904223
		f.shadow[i] ^= acc ^ f.regs[i&15]
	}
	dirty := uint32(0)
	for i := range f.shadow {
		if f.shadow[i]&7 == reason&7 {
			dirty++
		}
	}
	for i := range f.eptScratch {
		f.eptScratch[i] = f.shadow[(uint32(i)*67+dirty)&511] ^ f.ctrl[i%isa.NumCtrlRegs]
	}
	// World switch in: restore what the emulation layer may have
	// touched and re-enter.
	cpu.Regs = f.regs
	cpu.Ctrl = f.ctrl
	e.st.VMExits++
}

// translate resolves a data access through the flat hardware table.
func (e *Direct) translate(va uint32, write, asUser bool) (pa uint32, flags uint8, fault isa.FaultCode) {
	m := e.m
	h := e.h
	if !m.MMUEnabled() {
		return va, sem.PhysFlags(m.Bus, va), isa.FaultNone
	}
	vp := va >> isa.PageShift
	if h.ep[vp] != h.epoch {
		pte, _, f := sem.Walk(m, &e.st, va)
		if f != isa.FaultNone {
			return 0, 0, f
		}
		h.off[vp] = pte.PhysPage | uint32(sem.Flags(m.Bus, pte))
		h.ep[vp] = h.epoch
		// Evict the oldest live entry once the hardware TLB is full.
		// Ring slots hold vpage+1 so zero means empty.
		if old := h.ring[h.ringNext]; old != 0 && old-1 != vp && h.ep[old-1] == h.epoch {
			h.ep[old-1] = 0
		}
		h.ring[h.ringNext] = vp + 1
		h.ringNext = (h.ringNext + 1) % hwTLBSize
		e.st.TLBMisses++
	} else {
		e.st.TLBHits++
	}
	ent := h.off[vp]
	flags = uint8(ent & flagMask)
	if f := sem.Check(m, flags, write, asUser); f != isa.FaultNone {
		return 0, 0, f
	}
	return ent&^flagMask | va&isa.PageMask, flags, isa.FaultNone
}

func (e *Direct) fetch(pc uint32) (pa uint32, fault isa.FaultCode) {
	m := e.m
	if !m.MMUEnabled() {
		if !m.Bus.IsRAM(pc, isa.WordBytes) {
			return 0, isa.FaultBus
		}
		return pc, isa.FaultNone
	}
	pa, flags, fault := e.translate(pc, false, false)
	if fault != isa.FaultNone {
		return 0, fault
	}
	if flags&sem.RAM == 0 {
		return 0, isa.FaultBus
	}
	return pa, isa.FaultNone
}

// noteStore stales cached decodes of the stored page on every hart:
// RAM is shared, so a store from any hart reaches every hart's code.
func (e *Direct) noteStore(pa uint32) {
	for _, h := range e.harts {
		h.code.NoteStore(pa, &e.st)
	}
}

// Run implements engine.Engine.
func (e *Direct) Run(harts []*machine.Machine, limit uint64) (engine.Stats, error) {
	e.reset(harts)
	err := sem.Run(harts, &e.st, func(i int, total *uint64) error {
		return e.runSlice(e.harts[i], total, limit)
	})
	return e.st, err
}

// runSlice executes one scheduling quantum on h. The tick and limit
// checks key off the hart's own retired count, so at one core the
// instruction stream is bit-identical to the pre-SMP engine.
func (e *Direct) runSlice(h *hart, total *uint64, limit uint64) error {
	e.attach(h)
	m := h.m
	cpu := &m.CPU
	stop := h.insns + engine.SchedQuantum
	for !m.Halted && h.insns < stop {
		if *total >= limit {
			return engine.ErrLimit
		}
		if m.TickFn != nil && h.insns%sem.TickQuantum == 0 && h.insns != 0 {
			m.TickFn(sem.TickQuantum)
		}
		if m.IRQPending() {
			// Interrupt delivery: native hardware vectors directly;
			// a hypervisor must exit to inject the interrupt.
			if e.mode == ModeVirt {
				e.vmExit(5)
			}
			sem.IRQ(m, &e.st)
			continue
		}
		pc := cpu.PC
		var in *isa.Inst
		if pc>>isa.PageShift+1 == h.lastFetchVP && cpu.Kernel == h.lastKernel {
			// Same-page fetch: the hardware fast path.
			in = h.lastDP.Inst(sem.Word(pc))
		} else {
			pa, fault := e.fetch(pc)
			if fault != isa.FaultNone {
				// Guest-level fault: handled inside the guest in both
				// modes (hardware nested paging keeps KVM out of it).
				sem.FetchFault(m, &e.st, fault, pc)
				continue
			}
			in = h.code.Inst(pa, &e.st)
			// A fetch miss costs two decode-cache lookups, the second
			// to arm the fast path; that cost is part of what the
			// inter-page control-flow benchmarks measure here.
			h.lastDP = h.code.Page(pa, &e.st)
			h.lastFetchVP = pc>>isa.PageShift + 1
			h.lastKernel = cpu.Kernel
		}
		h.insns++
		*total++
		// The shared semantics, with the VM exits a hypervisor takes
		// on coprocessor and device accesses.
		switch va, k := sem.Exec(m, *in, &e.st, pc); k {
		case sem.LoadOp:
			pa, flags, fault := e.translate(va, false, in.Op == isa.OpLDT)
			e.deviceExit(flags, fault)
			sem.Load(m, *in, &e.st, pc, va, pa, flags, fault)
		case sem.StoreOp:
			pa, flags, fault := e.translate(va, true, in.Op == isa.OpSTT)
			e.deviceExit(flags, fault)
			if sem.Store(m, *in, &e.st, pc, va, pa, flags, fault) == sem.StoredRAM {
				e.noteStore(pa)
			}
		case sem.LoadExOp:
			pa, flags, fault := e.translate(va, false, false)
			sem.LoadEx(m, *in, &e.st, pc, va, pa, flags, fault)
		case sem.StoreExOp:
			pa, flags, fault := e.translate(va, true, false)
			if sem.StoreEx(m, *in, &e.st, pc, va, pa, flags, fault) == sem.StoredRAM {
				e.noteStore(pa)
			}
		case sem.CoprocOp:
			// Coprocessor access: direct on hardware, trapped under KVM.
			if e.mode == ModeVirt {
				e.vmExit(3)
			}
			if !sem.Coproc(m, *in, &e.st, pc) {
				e.undef(pc)
			}
		case sem.Undef:
			e.undef(pc)
		}
	}
	return nil
}

func (e *Direct) undef(pc uint32) {
	// On the x86 profile, KVM handles undefined instructions via a
	// hypercall-style exit before reflecting them to the guest.
	if e.mode == ModeVirt && e.m.Profile == machine.ProfileX86 {
		e.vmExit(2)
	}
	sem.Undefined(e.m, &e.st, pc)
}

// deviceExit models the cost of a device access, free on hardware and
// a trap-and-emulate round trip under virtualization.
func (e *Direct) deviceExit(flags uint8, fault isa.FaultCode) {
	if e.mode == ModeVirt && fault == isa.FaultNone && flags&sem.RAM == 0 {
		e.vmExit(4)
	}
}
