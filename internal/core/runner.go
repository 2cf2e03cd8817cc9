package core

import (
	"fmt"
	"time"

	"simbench/internal/arch"
	"simbench/internal/asm"
	"simbench/internal/engine"
	"simbench/internal/mmu"
	"simbench/internal/platform"
)

// Default runner parameters.
const (
	DefaultRAMSize   = 32 << 20
	DefaultInsnLimit = 4_000_000_000
)

// Runner executes benchmarks on one engine and one architecture
// profile. The zero value is not usable; fill Engine and Arch.
type Runner struct {
	Engine engine.Engine
	Arch   arch.Support

	// Cores is the number of harts the platform boots (0 and 1 both
	// mean single-core, the default).
	Cores int

	// RAMSize defaults to 32 MiB, InsnLimit to 4e9 retired guest
	// instructions (runaway protection).
	RAMSize   uint32
	InsnLimit uint64
}

// NewRunner returns a runner with default sizing.
func NewRunner(eng engine.Engine, sup arch.Support) *Runner {
	return &Runner{Engine: eng, Arch: sup, RAMSize: DefaultRAMSize, InsnLimit: DefaultInsnLimit}
}

// Run builds, boots and executes one benchmark for the given iteration
// count (0 means the paper's default count — rarely what you want
// interactively; see Scale in the suite helpers). The platform's guest
// RAM is freed when Run returns.
func (r *Runner) Run(b *Benchmark, iters int64) (*Result, error) {
	if iters <= 0 {
		iters = b.PaperIters
	}
	cores := r.Cores
	if cores < 1 {
		cores = 1
	}
	env := &Env{A: asm.New(), Arch: r.Arch, Iters: iters, Cores: cores}
	if err := b.Build(env); err != nil {
		return nil, fmt.Errorf("%s: build: %w", b.Name, err)
	}
	prog, err := env.A.Assemble()
	if err != nil {
		return nil, fmt.Errorf("%s: assemble: %w", b.Name, err)
	}

	ram := r.RAMSize
	if ram == 0 {
		ram = DefaultRAMSize
	}
	limit := r.InsnLimit
	if limit == 0 {
		limit = DefaultInsnLimit
	}
	p := platform.NewSMP(r.Arch.Profile(), ram, cores)
	defer p.Release()
	prefault(p, env)
	if err := p.LoadProgram(prog); err != nil {
		return nil, fmt.Errorf("%s: load: %w", b.Name, err)
	}
	if env.MMU {
		if err := r.bootloader(p, env); err != nil {
			return nil, fmt.Errorf("%s: bootloader: %w", b.Name, err)
		}
	}
	p.Ctl.Iters = uint64(iters)
	p.Reset()

	start := time.Now()
	st, runErr := r.Engine.Run(p.Harts(), limit)
	total := time.Since(start)

	res := &Result{
		Benchmark:         b,
		Engine:            r.Engine.Name(),
		Arch:              r.Arch.Name(),
		Iters:             iters,
		Cores:             cores,
		Kernel:            p.Ctl.KernelTime(),
		Total:             total,
		Stats:             st,
		Exc:               p.M.ExcCount,
		SafeDevAccesses:   p.Safe.Accesses(),
		CoprocDevAccesses: p.Coproc.Accesses(),
		SWIRaised:         p.IC.RaisedCount(),
		GuestResults:      p.Ctl.Results,
		Console:           p.ConsoleString(),
	}
	if runErr != nil {
		return res, fmt.Errorf("%s on %s: %w", b.Name, r.Engine.Name(), runErr)
	}
	if err := validateProtocol(res, p.Ctl.Began, p.Ctl.Ended, p.Ctl.AbortedWith); err != nil {
		return res, err
	}
	if b.Validate != nil {
		if err := b.Validate(res); err != nil {
			return res, fmt.Errorf("%s on %s: %w", b.Name, r.Engine.Name(), err)
		}
	}
	return res, nil
}

// prefault backs every RAM page the guest can reach before it runs —
// the identity region plus each requested mapping's physical range —
// so first-touch page faults stay out of the timed kernel.
func prefault(p *platform.Platform, env *Env) {
	p.M.Bus.Prefault(0, IdentityLimit)
	for _, m := range env.Mappings() {
		p.M.Bus.Prefault(m.PA, m.Size)
	}
}

// bootloader builds the initial page tables: an identity mapping for
// code/data/stack, the device pages, and every benchmark-requested
// region. On the arm profile the identity region uses a single section
// entry (the one-level translation path the paper contrasts with
// two-level lookups); on x86 it uses 4 KiB pages.
func (r *Runner) bootloader(p *platform.Platform, env *Env) error {
	formatB := r.Arch.Profile().FormatB()
	tb, err := mmu.NewBuilder(p.M.Bus, TableBase, TableLimit, formatB)
	if err != nil {
		return err
	}
	if tb.Root() != TableBase {
		return fmt.Errorf("table root %#x, expected %#x", tb.Root(), TableBase)
	}
	if formatB {
		if err := tb.MapRange(0, 0, IdentityLimit, true, false); err != nil {
			return err
		}
	} else {
		if err := tb.MapSection(0, 0, true, false); err != nil {
			return err
		}
	}
	for _, base := range []uint32{platform.UARTBase, platform.ICBase,
		platform.TimerBase, platform.SafeBase, platform.CtlBase} {
		if err := tb.MapPage(base, base, true, false); err != nil {
			return err
		}
	}
	for _, m := range env.Mappings() {
		if err := tb.MapRange(m.VA, m.PA, m.Size, m.W, m.U); err != nil {
			return err
		}
	}
	return nil
}
