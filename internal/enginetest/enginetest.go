// Package enginetest provides cross-engine differential testing
// helpers: the same guest program is run on every execution engine and
// the architectural outcomes (register file, exception counts, console
// output, memory regions) must agree. The fast interpreter is the
// reference; any divergence is a bug in one of the engines.
package enginetest

import (
	"fmt"
	"math/rand"

	"simbench/internal/asm"
	"simbench/internal/device"
	"simbench/internal/engine"
	"simbench/internal/engine/dbt"
	"simbench/internal/engine/detailed"
	"simbench/internal/engine/direct"
	"simbench/internal/engine/interp"
	"simbench/internal/isa"
	"simbench/internal/machine"
	"simbench/internal/platform"
)

// Engines returns one instance of every execution engine.
func Engines() []engine.Engine {
	return []engine.Engine{
		interp.New(),
		dbt.NewDefault(),
		detailed.New(),
		direct.New(direct.ModeVirt),
		direct.New(direct.ModeNative),
	}
}

// Outcome captures the architectural result of a run.
type Outcome struct {
	Regs    [isa.NumRegs]uint32
	Exc     [isa.NumExcs]uint64
	Console string
	Insns   uint64
	Stats   engine.Stats
	Err     error
	FinalPC uint32

	// HartRegs holds every hart's register file (index = hart ID);
	// Regs aliases hart 0's for single-core compatibility.
	HartRegs [][isa.NumRegs]uint32
}

// Run executes prog on eng under a fresh single-core platform and
// returns the outcome.
func Run(eng engine.Engine, profile machine.Profile, prog *asm.Program, limit uint64) (Outcome, error) {
	return RunSMP(eng, profile, prog, limit, 1)
}

// RunSMP executes prog on eng under a fresh N-core platform. Scalar
// outcome fields (Regs, Exc, FinalPC) describe hart 0; HartRegs has
// every hart's register file.
func RunSMP(eng engine.Engine, profile machine.Profile, prog *asm.Program, limit uint64, cores int) (Outcome, error) {
	p := platform.NewSMP(profile, 4<<20, cores)
	if err := p.LoadProgram(prog); err != nil {
		return Outcome{}, err
	}
	p.Reset()
	st, err := eng.Run(p.Harts(), limit)
	o := Outcome{
		Regs:    p.M.CPU.Regs,
		Exc:     p.M.ExcCount,
		Console: p.ConsoleString(),
		Insns:   st.Instructions,
		Stats:   st,
		Err:     err,
		FinalPC: p.M.CPU.PC,
	}
	for _, h := range p.Harts() {
		o.HartRegs = append(o.HartRegs, h.CPU.Regs)
	}
	return o, err
}

// RunAll executes prog on every engine and returns outcomes keyed by
// engine name.
func RunAll(profile machine.Profile, prog *asm.Program, limit uint64) (map[string]Outcome, error) {
	out := make(map[string]Outcome)
	for _, eng := range Engines() {
		o, err := Run(eng, profile, prog, limit)
		if err != nil {
			return nil, fmt.Errorf("%s: %w (pc=%#x)", eng.Name(), err, o.FinalPC)
		}
		out[eng.Name()] = o
	}
	return out, nil
}

// Diff compares every outcome against the reference (interp) and
// returns a description of the first divergence, or "".
func Diff(outcomes map[string]Outcome) string {
	ref, ok := outcomes["interp"]
	if !ok {
		return "no reference outcome"
	}
	for name, o := range outcomes {
		if name == "interp" {
			continue
		}
		if o.Regs != ref.Regs {
			return fmt.Sprintf("%s: registers differ\n  got  %v\n  want %v", name, o.Regs, ref.Regs)
		}
		if o.Exc != ref.Exc {
			return fmt.Sprintf("%s: exception counts differ: got %v want %v", name, o.Exc, ref.Exc)
		}
		if o.Console != ref.Console {
			return fmt.Sprintf("%s: console differs: got %q want %q", name, o.Console, ref.Console)
		}
		if o.Insns != ref.Insns {
			return fmt.Sprintf("%s: instruction count differs: got %d want %d", name, o.Insns, ref.Insns)
		}
	}
	return ""
}

// dataBase is the scratch page random programs may access.
const dataBase = 0x9000

// RandomProgram generates a terminating random program exercising ALU
// operations, flags, short forward branches, word, byte and exclusive
// accesses to the scratch page, UART stores (the device path) and
// control-register reads. Control flow only moves forward, so
// termination is structural.
func RandomProgram(r *rand.Rand, n int) (*asm.Program, error) {
	a := asm.New()
	// Seed registers with random values; R11 is the UART base, R12 the
	// data base, R15 the exclusive-pair address, and SP and LR are left
	// for calls.
	for reg := isa.R0; reg <= isa.R10; reg++ {
		a.LoadImm32(reg, r.Uint32())
	}
	a.LoadImm32(isa.R11, platform.UARTBase+device.UARTTx)
	a.LoadImm32(isa.R12, dataBase)

	aluR := []func(rd, ra, rb isa.Reg){a.ADD, a.SUB, a.AND, a.OR, a.XOR, a.SHL, a.SHR, a.SRA, a.MUL}
	aluI := []func(rd, ra isa.Reg, imm int32){a.ADDI, a.SUBI, a.ANDI, a.ORI, a.XORI, a.MULI,
		a.SHLI, a.SHRI, a.SRAI}
	conds := []isa.Cond{isa.CondEQ, isa.CondNE, isa.CondLT, isa.CondGE, isa.CondGT,
		isa.CondLE, isa.CondLO, isa.CondHS, isa.CondHI, isa.CondLS, isa.CondMI,
		isa.CondPL, isa.CondVS, isa.CondVC, isa.CondAL}

	reg := func() isa.Reg { return isa.Reg(r.Intn(11)) } // R0..R10

	for i := 0; i < n; i++ {
		a.Label(asm.Label(fmt.Sprintf("L%d", i)))
		switch r.Intn(16) {
		case 0, 1, 2:
			aluR[r.Intn(len(aluR))](reg(), reg(), reg())
		case 3, 4:
			aluI[r.Intn(len(aluI))](reg(), reg(), int32(r.Intn(65536)-32768)&0x7FFF)
		case 5:
			if r.Intn(2) == 0 {
				a.CMP(reg(), reg())
			} else {
				a.CMPI(reg(), int32(r.Intn(32768)))
			}
		case 6:
			// Forward conditional branch over at most seven slots, so
			// a taken branch skips a little of the program, not on
			// average half of what is left.
			target := i + 1 + r.Intn(min(8, n-i))
			a.B(conds[r.Intn(len(conds))], asm.Label(fmt.Sprintf("L%d", target)))
		case 7:
			a.LDW(reg(), isa.R12, int32(r.Intn(256))*4)
		case 8:
			a.STW(reg(), isa.R12, int32(r.Intn(256))*4)
		case 9:
			if r.Intn(2) == 0 {
				a.MOVI(reg(), int32(r.Intn(65536)))
			} else {
				a.MOVT(reg(), int32(r.Intn(65536)))
			}
		case 10:
			if r.Intn(2) == 0 {
				a.MOV(reg(), reg())
			} else {
				a.NOT(reg(), reg())
			}
		case 11:
			a.LDB(reg(), isa.R12, int32(r.Intn(1024)))
		case 12:
			a.STB(reg(), isa.R12, int32(r.Intn(1024)))
		case 13:
			// An exclusive pair on one scratch word; a third of the
			// time the STX stands alone and succeeds only if an earlier
			// LDX's reservation on that word survived.
			a.ADDI(isa.R15, isa.R12, int32(r.Intn(256))*4)
			if r.Intn(3) != 0 {
				a.LDX(reg(), isa.R15)
			}
			a.STX(reg(), reg(), isa.R15)
		case 14:
			a.STW(reg(), isa.R11, 0)
		case 15:
			if r.Intn(2) == 0 {
				a.MRS(reg(), isa.CtrlPSR)
			} else {
				a.MRS(reg(), isa.CtrlCPUID)
			}
		}
	}
	a.Label(asm.Label(fmt.Sprintf("L%d", n)))
	// Fold memory into registers so stores are observable.
	for w := 0; w < 8; w++ {
		a.LDW(isa.Reg(w), isa.R12, int32(w*4))
	}
	a.HALT()
	return a.Assemble()
}
