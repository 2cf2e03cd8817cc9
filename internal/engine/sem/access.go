package sem

import (
	"simbench/internal/engine"
	"simbench/internal/isa"
	"simbench/internal/machine"
	"simbench/internal/mem"
	"simbench/internal/mmu"
)

// Permission flags an engine caches beside a translation.
const (
	Write uint8 = 1 << 0 // the page is writable
	User  uint8 = 1 << 1 // the page is user-accessible
	RAM   uint8 = 1 << 2 // the page is RAM, not a device
)

// Walk walks the guest page tables for va and counts the walk.
func Walk(m *machine.Machine, st *engine.Stats, va uint32) (pte mmu.PTE, levels int, fault isa.FaultCode) {
	pte, levels, fault = mmu.Walk(m.Bus, m.TTBR(), m.FormatB(), va)
	st.PageWalks++
	st.WalkLevels += uint64(levels)
	return pte, levels, fault
}

// Flags returns the permission flags of a walked page-table entry.
func Flags(bus *mem.Bus, pte mmu.PTE) uint8 {
	var f uint8
	if pte.Writable {
		f |= Write
	}
	if pte.User {
		f |= User
	}
	if bus.IsRAM(pte.PhysPage, isa.PageSize) {
		f |= RAM
	}
	return f
}

// PhysFlags returns the flags of an untranslated access to pa: every
// access is permitted, and only RAM is RAM.
func PhysFlags(bus *mem.Bus, pa uint32) uint8 {
	if bus.IsRAM(pa, 1) {
		return Write | User | RAM
	}
	return Write | User
}

// Check applies the permission check to an access through a page with
// the given flags: kernel mode may use any page unless asUser (LDT and
// STT) asks for a user-mode check, user mode needs a user page, and a
// write needs a writable page.
func Check(m *machine.Machine, flags uint8, write, asUser bool) isa.FaultCode {
	if (!m.CPU.Kernel || asUser) && flags&User == 0 {
		return isa.FaultPermission
	}
	if write && flags&Write == 0 {
		return isa.FaultPermission
	}
	return isa.FaultNone
}

// Access says how a data-access tail ended.
type Access uint8

// Access outcomes.
const (
	Faulted   Access = iota // a data abort was entered
	Done                    // the access retired without writing RAM
	StoredRAM               // the access retired and wrote RAM at pa
)

// dataFault enters the data abort for an access to va by the
// instruction at pc.
func dataFault(m *machine.Machine, st *engine.Stats, fault isa.FaultCode, va uint32, write bool, pc uint32) {
	m.EnterMemFault(isa.ExcDataFault, fault, va, write, pc)
	st.ExceptionsTaken++
}

// size returns the access width of a load or store op in bytes.
func size(op isa.Op) int {
	if op == isa.OpLDB || op == isa.OpSTB {
		return 1
	}
	return 4
}

// Load finishes the load in (LDW, LDB, LDT) from va, which the
// engine translated to pa with the given flags or to fault.
func Load(m *machine.Machine, in isa.Inst, st *engine.Stats, pc, va, pa uint32, flags uint8, fault isa.FaultCode) Access {
	if fault != isa.FaultNone {
		dataFault(m, st, fault, va, false, pc)
		return Faulted
	}
	var v uint32
	switch {
	case flags&RAM == 0:
		st.DeviceAccesses++
		if v, fault = m.Bus.ReadPhys(pa, size(in.Op)); fault != isa.FaultNone {
			dataFault(m, st, fault, va, false, pc)
			return Faulted
		}
	case in.Op == isa.OpLDB:
		v = uint32(m.Bus.RAM[pa])
	default:
		v = m.Bus.ReadWordRAM(pa)
	}
	m.CPU.Regs[in.Rd] = v
	m.CPU.PC = pc + 4
	return Done
}

// Store finishes the store in (STW, STB, STT) to va, translated as
// for Load. A RAM store breaks every exclusive reservation on the
// word.
func Store(m *machine.Machine, in isa.Inst, st *engine.Stats, pc, va, pa uint32, flags uint8, fault isa.FaultCode) Access {
	if fault != isa.FaultNone {
		dataFault(m, st, fault, va, true, pc)
		return Faulted
	}
	v := m.CPU.Regs[in.Rd]
	if flags&RAM == 0 {
		st.DeviceAccesses++
		if fault = m.Bus.WritePhys(pa, size(in.Op), v); fault != isa.FaultNone {
			dataFault(m, st, fault, va, true, pc)
			return Faulted
		}
		m.CPU.PC = pc + 4
		return Done
	}
	if in.Op == isa.OpSTB {
		m.Bus.RAM[pa] = byte(v)
	} else {
		m.Bus.WriteWordRAM(pa, v)
	}
	if m.Mon.Armed() {
		m.Mon.NoteStore(pa)
	}
	m.CPU.PC = pc + 4
	return StoredRAM
}

// LoadEx finishes LDX: a word load that arms this hart's exclusive
// reservation on the loaded word. Exclusives are RAM-only; a device
// target raises a bus data fault.
func LoadEx(m *machine.Machine, in isa.Inst, st *engine.Stats, pc, va, pa uint32, flags uint8, fault isa.FaultCode) Access {
	if fault == isa.FaultNone && flags&RAM == 0 {
		fault = isa.FaultBus
	}
	if fault != isa.FaultNone {
		dataFault(m, st, fault, va, false, pc)
		return Faulted
	}
	m.Mon.Arm(m.HartID, pa)
	m.CPU.Regs[in.Rd] = m.Bus.ReadWordRAM(pa)
	m.CPU.PC = pc + 4
	return Done
}

// StoreEx finishes STX: rb is stored to the word iff this hart
// still holds its reservation on it, and rd gets 0 on success or 1 on
// failure.
func StoreEx(m *machine.Machine, in isa.Inst, st *engine.Stats, pc, va, pa uint32, flags uint8, fault isa.FaultCode) Access {
	if fault == isa.FaultNone && flags&RAM == 0 {
		fault = isa.FaultBus
	}
	if fault != isa.FaultNone {
		dataFault(m, st, fault, va, true, pc)
		return Faulted
	}
	m.CPU.PC = pc + 4
	if !m.Mon.Exclusive(m.HartID, pa) {
		st.ExclusiveFails++
		m.CPU.Regs[in.Rd] = 1
		return Done
	}
	st.MemWrites++
	m.Bus.WriteWordRAM(pa, m.CPU.Regs[in.Rb])
	m.Mon.NoteStore(pa) // break other harts' reservations
	m.CPU.Regs[in.Rd] = 0
	return StoredRAM
}
