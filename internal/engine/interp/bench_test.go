package interp

// Hot-path microbenchmarks for the fast interpreter: the
// per-instruction dispatch cost (BenchmarkDispatch) and the fetch
// translation cost on straight-line same-page code
// (BenchmarkFetchSamePage). Recorded runs of these benchmarks form the
// perf trajectory in the repo's BENCH_*.json files; see README
// "Performance trajectory".

import (
	"testing"

	"simbench/internal/asm"
	"simbench/internal/isa"
	"simbench/internal/machine"
	"simbench/internal/platform"
)

func benchAssemble(b *testing.B, build func(a *asm.Assembler)) *asm.Program {
	b.Helper()
	a := asm.New()
	build(a)
	prog, err := a.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func benchRun(b *testing.B, prog *asm.Program) {
	b.Helper()
	var insns uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := platform.New(machine.ProfileARM, 1<<20)
		if err := p.M.LoadProgram(prog); err != nil {
			b.Fatal(err)
		}
		p.M.Reset()
		b.StartTimer()
		st, err := New().Run(p.Harts(), 500_000_000)
		if err != nil {
			b.Fatalf("%v (pc=%#x)", err, p.M.CPU.PC)
		}
		insns += st.Instructions
	}
	b.ReportMetric(float64(insns)/b.Elapsed().Seconds()/1e6, "Mips")
}

// BenchmarkDispatch measures the per-instruction decode + dispatch
// loop on a hot ALU kernel: the fetch fast path and sem.Exec's opcode
// switch.
func BenchmarkDispatch(b *testing.B) {
	benchRun(b, benchAssemble(b, func(a *asm.Assembler) {
		a.LoadImm32(isa.R1, 50_000)
		a.MOVI(isa.R2, 0)
		a.MOVI(isa.R3, 7)
		a.Label("loop")
		a.ADD(isa.R2, isa.R2, isa.R3)
		a.XOR(isa.R4, isa.R2, isa.R1)
		a.SHLI(isa.R5, isa.R4, 3)
		a.SUB(isa.R2, isa.R2, isa.R5)
		a.ORI(isa.R6, isa.R2, 0x55)
		a.AND(isa.R2, isa.R2, isa.R6)
		a.SUBI(isa.R1, isa.R1, 1)
		a.CMPI(isa.R1, 0)
		a.B(isa.CondNE, "loop")
		a.HALT()
	}))
}

// BenchmarkFetchSamePage measures fetch-translation overhead on
// straight-line code that never leaves its page — the case the
// same-page fetch fast path serves without touching the fetch cache.
func BenchmarkFetchSamePage(b *testing.B) {
	benchRun(b, benchAssemble(b, func(a *asm.Assembler) {
		a.LoadImm32(isa.R1, 20_000)
		a.MOVI(isa.R2, 0)
		a.Label("loop")
		for i := 0; i < 24; i++ {
			a.ADDI(isa.R2, isa.R2, 1)
		}
		a.SUBI(isa.R1, isa.R1, 1)
		a.CMPI(isa.R1, 0)
		a.B(isa.CondNE, "loop")
		a.HALT()
	}))
}
