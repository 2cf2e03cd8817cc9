// Package sem is the SV32 instruction semantics that the interpreting
// engines (interp, direct, detailed) share. The paper's Fig. 4 says
// simulators differ in their mechanisms — how they fetch, translate,
// cache and account — never in what an instruction does, so what an
// instruction does lives here once: register, flag and PC semantics,
// the system ops, and the tails of data accesses once an engine has
// translated the address. Each engine keeps its mechanism and calls
// into this package from its own call sites, with its hooks (VM exits,
// cost models, profiling) around those calls.
//
// Everything here is a plain function over *machine.Machine and
// *engine.Stats, so no per-instruction path gains an interface, func
// value or type-parameter call. The decoded instruction is passed by
// value, right after the machine: the two fill the nine integer
// argument registers of Go's amd64 register ABI, so the instruction
// reaches the semantics in registers, as it reached the engines' own
// handlers before this package existed. That keeps each engine's
// per-instruction cost, which the figures report, close to where it
// was: a pointer made interp and native about 10% faster, and an
// instruction placed after the stats pointer no longer fits the
// registers and goes through the stack at up to half the speed.
//
// The DBT engine's micro-op bodies are deliberately not built on this
// package: they are the independent implementation the differential
// tests check interp against.
package sem

import (
	"simbench/internal/engine"
	"simbench/internal/isa"
	"simbench/internal/machine"
)

// TickQuantum is the timer-tick quantum, in retired instructions per
// hart: engines call the platform's TickFn each time a hart retires
// another TickQuantum instructions. It is a modelled cost, behind
// every interrupt benchmark, and is kept apart from the host
// scheduling policy engine.SchedQuantum even though the two currently
// coincide.
const TickQuantum = 4096

// Run is the hart rotation every engine shares: it calls slice for
// each hart that has not halted, in hart order, until every hart has
// halted or slice fails. slice runs one scheduling quantum on harts[i]
// and adds what it retires to *total; Run stores the total in
// st.Instructions either way.
func Run(harts []*machine.Machine, st *engine.Stats, slice func(i int, total *uint64) error) error {
	var total uint64
	defer func() { st.Instructions = total }()
	for {
		running := false
		for i, m := range harts {
			if m.Halted {
				continue
			}
			running = true
			if err := slice(i, &total); err != nil {
				return err
			}
		}
		if !running {
			return nil
		}
	}
}

// Kind says what Exec did with an instruction, or what the engine must
// do with it next.
type Kind uint8

// Kinds.
const (
	// Retired: the instruction executed and the PC moved on (or an
	// exception was entered, for SVC, or the hart halted).
	Retired Kind = iota
	// Taken and NotTaken: a branch executed; the PC holds its target
	// or the fall-through.
	Taken
	NotTaken
	// Undef: the instruction is undefined here and nothing changed;
	// the engine raises the exception through its own path.
	Undef
	// CoprocOp: CPRD or CPWR, which the engine executes with Coproc
	// after any hook of its own.
	CoprocOp
	// LoadOp, StoreOp, LoadExOp and StoreExOp: a data access to the
	// returned address, which the engine translates before finishing
	// it with Load, Store, LoadEx or StoreEx.
	LoadOp
	StoreOp
	LoadExOp
	StoreExOp
)

// Exec executes in, fetched from pc, as far as it needs no engine
// mechanism. For a data access it returns the effective address,
// aligned for word accesses, with the access already counted.
func Exec(m *machine.Machine, in isa.Inst, st *engine.Stats, pc uint32) (uint32, Kind) {
	c := &m.CPU
	r := &c.Regs
	var v uint32 // the value written to rd
	switch in.Op {
	case isa.OpADD:
		v = r[in.Ra] + r[in.Rb]
	case isa.OpSUB:
		v = r[in.Ra] - r[in.Rb]
	case isa.OpAND:
		v = r[in.Ra] & r[in.Rb]
	case isa.OpOR:
		v = r[in.Ra] | r[in.Rb]
	case isa.OpXOR:
		v = r[in.Ra] ^ r[in.Rb]
	case isa.OpSHL:
		v = r[in.Ra] << (r[in.Rb] & 31)
	case isa.OpSHR:
		v = r[in.Ra] >> (r[in.Rb] & 31)
	case isa.OpSRA:
		v = uint32(int32(r[in.Ra]) >> (r[in.Rb] & 31))
	case isa.OpMUL:
		v = r[in.Ra] * r[in.Rb]
	case isa.OpMOV:
		v = r[in.Ra]
	case isa.OpNOT:
		v = ^r[in.Ra]
	case isa.OpADDI:
		v = r[in.Ra] + uint32(in.Imm)
	case isa.OpSUBI:
		v = r[in.Ra] - uint32(in.Imm)
	case isa.OpANDI:
		v = r[in.Ra] & uint32(in.Imm)
	case isa.OpORI:
		v = r[in.Ra] | uint32(in.Imm)
	case isa.OpXORI:
		v = r[in.Ra] ^ uint32(in.Imm)
	case isa.OpSHLI:
		v = r[in.Ra] << (uint32(in.Imm) & 31)
	case isa.OpSHRI:
		v = r[in.Ra] >> (uint32(in.Imm) & 31)
	case isa.OpSRAI:
		v = uint32(int32(r[in.Ra]) >> (uint32(in.Imm) & 31))
	case isa.OpMULI:
		v = r[in.Ra] * uint32(in.Imm)
	case isa.OpMOVI:
		v = uint32(in.Imm)
	case isa.OpMOVT:
		v = r[in.Rd]&0xFFFF | uint32(in.Imm)<<16
	case isa.OpMRS:
		var ok bool
		if v, ok = m.ReadCtrl(isa.CtrlReg(in.Imm)); !ok {
			return 0, Undef
		}

	case isa.OpNOP:
		c.PC = pc + 4
		return 0, Retired
	case isa.OpCMP:
		c.Flags = isa.Sub(r[in.Ra], r[in.Rb])
		c.PC = pc + 4
		return 0, Retired
	case isa.OpCMPI:
		c.Flags = isa.Sub(r[in.Ra], uint32(in.Imm))
		c.PC = pc + 4
		return 0, Retired

	case isa.OpB, isa.OpBL:
		if !in.Cond.Eval(c.Flags) {
			c.PC = pc + 4
			return 0, NotTaken
		}
		if in.Op == isa.OpBL {
			r[isa.LR] = pc + 4
		}
		c.PC = pc + 4 + uint32(in.Off)
		return 0, Taken
	case isa.OpBR, isa.OpBLR:
		target := r[in.Ra] &^ 3
		if in.Op == isa.OpBLR {
			r[isa.LR] = pc + 4
		}
		c.PC = target
		return 0, Taken

	case isa.OpLDW:
		st.MemReads++
		return (r[in.Ra] + uint32(in.Imm)) &^ 3, LoadOp
	case isa.OpLDB:
		st.MemReads++
		return r[in.Ra] + uint32(in.Imm), LoadOp
	case isa.OpSTW:
		st.MemWrites++
		return (r[in.Ra] + uint32(in.Imm)) &^ 3, StoreOp
	case isa.OpSTB:
		st.MemWrites++
		return r[in.Ra] + uint32(in.Imm), StoreOp
	case isa.OpLDT, isa.OpSTT:
		// Non-privileged accesses exist only on the arm profile.
		if !m.NonPrivSupported() {
			return 0, Undef
		}
		st.NonPrivAccesses++
		if in.Op == isa.OpLDT {
			st.MemReads++
			return (r[in.Ra] + uint32(in.Imm)) &^ 3, LoadOp
		}
		st.MemWrites++
		return (r[in.Ra] + uint32(in.Imm)) &^ 3, StoreOp
	case isa.OpLDX:
		st.MemReads++
		st.ExclusiveOps++
		return r[in.Ra] &^ 3, LoadExOp
	case isa.OpSTX:
		st.ExclusiveOps++
		return r[in.Ra] &^ 3, StoreExOp

	case isa.OpSVC:
		m.Enter(isa.ExcSyscall, pc+4)
		st.ExceptionsTaken++
		return 0, Retired
	case isa.OpERET:
		if !c.Kernel {
			return 0, Undef
		}
		m.ERET()
		return 0, Retired
	case isa.OpMSR:
		if !m.WriteCtrl(isa.CtrlReg(in.Imm), r[in.Rd]) {
			return 0, Undef
		}
		c.PC = pc + 4
		return 0, Retired
	case isa.OpTLBI:
		if !c.Kernel {
			return 0, Undef
		}
		st.TLBInvalidates++
		m.ShootdownPage(r[in.Ra])
		c.PC = pc + 4
		return 0, Retired
	case isa.OpTLBIA:
		if !c.Kernel {
			return 0, Undef
		}
		st.TLBFlushes++
		m.ShootdownAll()
		c.PC = pc + 4
		return 0, Retired
	case isa.OpHALT:
		if !c.Kernel {
			return 0, Undef
		}
		m.Halted = true
		return 0, Retired
	case isa.OpCPRD, isa.OpCPWR:
		return 0, CoprocOp
	default:
		return 0, Undef
	}
	r[in.Rd] = v
	c.PC = pc + 4
	return 0, Retired
}

// Coproc executes CPRD or CPWR. It reports false, changing nothing,
// when the access is undefined: user mode, or no such coprocessor or
// register.
func Coproc(m *machine.Machine, in isa.Inst, st *engine.Stats, pc uint32) bool {
	cp, reg := uint32(in.Imm)>>8, uint32(in.Imm)&0xFF
	if in.Op == isa.OpCPRD {
		v, ok := m.CoprocRead(cp, reg)
		if !ok {
			return false
		}
		m.CPU.Regs[in.Rd] = v
	} else if !m.CoprocWrite(cp, reg, m.CPU.Regs[in.Rd]) {
		return false
	}
	st.CoprocAccesses++
	m.CPU.PC = pc + 4
	return true
}

// Undefined enters the undefined-instruction exception for the
// instruction at pc.
func Undefined(m *machine.Machine, st *engine.Stats, pc uint32) {
	m.Enter(isa.ExcUndef, pc+4)
	st.ExceptionsTaken++
}

// IRQ delivers the pending interrupt before the next instruction.
func IRQ(m *machine.Machine, st *engine.Stats) {
	m.Enter(isa.ExcIRQ, m.CPU.PC)
	st.IRQsDelivered++
	st.ExceptionsTaken++
}

// FetchFault enters the instruction abort for a fetch from pc.
func FetchFault(m *machine.Machine, st *engine.Stats, fault isa.FaultCode, pc uint32) {
	m.EnterMemFault(isa.ExcInstFault, fault, pc, false, pc)
	st.ExceptionsTaken++
}
