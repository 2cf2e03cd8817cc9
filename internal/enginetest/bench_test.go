package enginetest

import (
	"testing"

	"simbench/internal/asm"
	"simbench/internal/isa"
	"simbench/internal/machine"
	"simbench/internal/platform"
)

// engineLoopIters is the loop count of BenchmarkEngineLoop's kernel:
// ten instructions per iteration, 5 M retired instructions per run, so
// per-run engine setup (direct's flat VA tables among it) stays a small
// fraction of the measured op.
const engineLoopIters = 500_000

// BenchmarkEngineLoop measures each engine's per-instruction cost on an
// ALU + LDW/STW loop, reported as Mips. Platform construction and
// program loading sit outside the timer; the engine's own Run,
// including its per-run reset, is inside it.
func BenchmarkEngineLoop(b *testing.B) {
	a := asm.New()
	a.LoadImm32(isa.R1, engineLoopIters)
	a.LoadImm32(isa.R12, dataBase)
	a.MOVI(isa.R2, 0)
	a.MOVI(isa.R3, 7)
	a.Label("loop")
	a.ADD(isa.R2, isa.R2, isa.R3)
	a.LDW(isa.R4, isa.R12, 0)
	a.XOR(isa.R4, isa.R4, isa.R2)
	a.STW(isa.R4, isa.R12, 4)
	a.SHLI(isa.R5, isa.R4, 3)
	a.LDW(isa.R6, isa.R12, 4)
	a.STW(isa.R5, isa.R12, 0)
	a.SUBI(isa.R1, isa.R1, 1)
	a.CMPI(isa.R1, 0)
	a.B(isa.CondNE, "loop")
	a.HALT()
	prog, err := a.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	for _, eng := range Engines() {
		b.Run(eng.Name(), func(b *testing.B) {
			var insns uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := platform.New(machine.ProfileARM, 4<<20)
				if err := p.LoadProgram(prog); err != nil {
					b.Fatal(err)
				}
				p.Reset()
				b.StartTimer()
				st, err := eng.Run(p.Harts(), 100_000_000)
				b.StopTimer()
				if err != nil {
					b.Fatalf("%v (pc=%#x)", err, p.M.CPU.PC)
				}
				insns += st.Instructions
				p.Release()
				b.StartTimer()
			}
			b.ReportMetric(float64(insns)/b.Elapsed().Seconds()/1e6, "Mips")
		})
	}
}
