package enginetest

import (
	"fmt"
	"math/rand"
	"testing"

	"simbench/internal/engine"
	"simbench/internal/engine/dbt"
	"simbench/internal/engine/interp"
	"simbench/internal/machine"
	"simbench/internal/versions"
)

// equivalenceEngines lists every engine configuration a figure can run
// besides the interp reference: the other engines, the superblock DBT
// variants and the twenty modelled QEMU releases.
func equivalenceEngines() []engine.Engine {
	engs := Engines()[1:]
	for _, cfg := range superblockConfigs() {
		engs = append(engs, dbt.New(cfg))
	}
	for _, rel := range versions.All() {
		engs = append(engs, rel.Engine())
	}
	return engs
}

// FuzzEngineEquivalence runs a random program on one engine
// configuration and on the interp reference and requires identical
// registers, exception counts, console and retired-instruction count.
// The committed corpus under testdata/fuzz names every configuration
// at least once, so plain `go test` covers each of them.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(0), false)
	engs := equivalenceEngines()
	f.Fuzz(func(t *testing.T, seed int64, n uint16, engineIdx uint8, x86 bool) {
		eng := engs[int(engineIdx)%len(engs)]
		name := eng.Name()
		if s, ok := eng.(fmt.Stringer); ok {
			name = s.String()
		}
		profile := machine.ProfileARM
		if x86 {
			profile = machine.ProfileX86
		}
		prog, err := RandomProgram(rand.New(rand.NewSource(seed)), 1+int(n)%400)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Run(interp.New(), profile, prog, 10_000_000)
		if err != nil {
			t.Fatalf("interp: %v (pc=%#x)", err, ref.FinalPC)
		}
		got, err := Run(eng, profile, prog, 10_000_000)
		if err != nil {
			t.Fatalf("%s: %v (pc=%#x)", name, err, got.FinalPC)
		}
		if d := Diff(map[string]Outcome{"interp": ref, name: got}); d != "" {
			t.Fatalf("seed %d n %d %s: %s", seed, n, profile, d)
		}
	})
}
