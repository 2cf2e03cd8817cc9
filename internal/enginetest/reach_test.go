package enginetest

import (
	"fmt"
	"math/rand"
	"testing"

	"simbench/internal/asm"
	"simbench/internal/machine"
)

// TestRandomProgramReach pins how much of a random program runs. A
// forward branch that skips most of what is left leaves the generated
// accesses, device stores and control-register reads unexecuted, and
// a differential test can only catch a divergence in code that runs.
// It measures the share of generated body instructions the reference
// interpreter retires over 20 seeds at n = 300.
func TestRandomProgramReach(t *testing.T) {
	const n = 300
	var body, retired uint64
	for seed := int64(0); seed < 20; seed++ {
		prog, err := RandomProgram(rand.New(rand.NewSource(seed)), n)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(Engines()[0], machine.ProfileARM, prog, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		// The prologue runs up to L0 and the epilogue (eight loads and
		// HALT) after Ln; the body lies between the two labels.
		start, end := prog.Symbols[asm.Label("L0")], prog.Symbols[asm.Label(fmt.Sprintf("L%d", n))]
		prologue := uint64(start-prog.Entry) / 4
		body += uint64(end-start) / 4
		retired += out.Insns - prologue - 9
	}
	share := float64(retired) / float64(body)
	t.Logf("random programs retire %.1f%% of their body instructions (%d of %d)", 100*share, retired, body)
	if share < 0.75 {
		t.Errorf("random programs retire only %.1f%% of their body instructions", 100*share)
	}
}
