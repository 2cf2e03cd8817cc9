package core

import (
	"strings"
	"testing"

	"simbench/internal/arch"
	"simbench/internal/engine/interp"
	"simbench/internal/isa"
)

// miniBench builds a minimal valid benchmark: N iterations of a
// counted loop bracketed by BEGIN/END, reporting R8.
func miniBench() *Benchmark {
	return &Benchmark{
		Name:       "test.mini",
		Title:      "Mini",
		Category:   CatCodeGen,
		PaperIters: 1000,
		TestedOps:  func(r *Result) uint64 { return uint64(r.Iters) },
		Build: func(env *Env) error {
			a := env.A
			EmitPreamble(env)
			EmitLoadIters(env, isa.R11)
			a.MOVI(isa.R8, 0)
			EmitBegin(env, isa.R0)
			a.Label("loop")
			a.ADDI(isa.R8, isa.R8, 3)
			a.SUBI(isa.R11, isa.R11, 1)
			a.CMPI(isa.R11, 0)
			a.B(isa.CondNE, "loop")
			EmitEnd(env, isa.R0)
			EmitResult(env, isa.R8, isa.R0)
			EmitHalt(env)
			EmitVectors(env, Handlers{})
			return nil
		},
	}
}

func TestRunnerProtocol(t *testing.T) {
	r := NewRunner(interp.New(), arch.ARM{})
	res, err := r.Run(miniBench(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 50 {
		t.Errorf("iters %d", res.Iters)
	}
	if res.Kernel <= 0 || res.Total < res.Kernel {
		t.Errorf("times: kernel %v total %v", res.Kernel, res.Total)
	}
	if len(res.GuestResults) != 1 || res.GuestResults[0] != 150 {
		t.Errorf("guest results %v", res.GuestResults)
	}
	if res.Engine != "interp" || res.Arch != "arm" {
		t.Errorf("labels %s %s", res.Engine, res.Arch)
	}
	if res.TestedOps() != 50 {
		t.Errorf("tested ops %d", res.TestedOps())
	}
	if res.OpDensity() <= 0 {
		t.Error("density")
	}
	if res.PerIter() <= 0 {
		t.Error("per-iter")
	}
	if !strings.Contains(res.String(), "test.mini") {
		t.Error("String()")
	}
}

// BenchmarkRunnerRun prices the harness around a near-empty kernel:
// assembly, platform construction with its guest RAM, prefault, boot,
// validation and release.
func BenchmarkRunnerRun(b *testing.B) {
	r := NewRunner(interp.New(), arch.ARM{})
	bench := miniBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(bench, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunnerDefaultIters(t *testing.T) {
	r := NewRunner(interp.New(), arch.ARM{})
	res, err := r.Run(miniBench(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 1000 {
		t.Errorf("default iters %d, want PaperIters", res.Iters)
	}
}

func TestRunnerRejectsAbort(t *testing.T) {
	b := miniBench()
	b.Build = func(env *Env) error {
		a := env.A
		EmitPreamble(env)
		EmitBegin(env, isa.R0)
		// Jump into the abort handler: simulates a self-detected error.
		a.B(isa.CondAL, "vec_abort")
		EmitVectors(env, Handlers{})
		return nil
	}
	r := NewRunner(interp.New(), arch.ARM{})
	if _, err := r.Run(b, 10); err == nil || !strings.Contains(err.Error(), "abort") {
		t.Errorf("err = %v, want abort", err)
	}
}

func TestRunnerRejectsMissingEnd(t *testing.T) {
	b := miniBench()
	b.Build = func(env *Env) error {
		EmitPreamble(env)
		EmitBegin(env, isa.R0)
		EmitHalt(env)
		EmitVectors(env, Handlers{})
		return nil
	}
	r := NewRunner(interp.New(), arch.ARM{})
	if _, err := r.Run(b, 10); err == nil || !strings.Contains(err.Error(), "bracketed") {
		t.Errorf("err = %v, want protocol failure", err)
	}
}

func TestRunnerValidatorFailure(t *testing.T) {
	b := miniBench()
	b.Validate = func(r *Result) error {
		return errSentinel
	}
	r := NewRunner(interp.New(), arch.ARM{})
	if _, err := r.Run(b, 10); err == nil || !strings.Contains(err.Error(), "sentinel") {
		t.Errorf("err = %v", err)
	}
}

type sentinelError struct{}

func (sentinelError) Error() string { return "sentinel failure" }

var errSentinel = sentinelError{}

func TestRunnerBuildError(t *testing.T) {
	b := miniBench()
	b.Build = func(env *Env) error { return errSentinel }
	r := NewRunner(interp.New(), arch.ARM{})
	if _, err := r.Run(b, 10); err == nil || !strings.Contains(err.Error(), "build") {
		t.Errorf("err = %v", err)
	}
}

func TestRunnerMMUBootloader(t *testing.T) {
	for _, sup := range arch.All() {
		b := miniBench()
		inner := b.Build
		b.Build = func(env *Env) error {
			env.MMU = true
			env.Map(0x02000000, BenchPhysBase, isa.PageSize, true, false)
			return inner(env)
		}
		r := NewRunner(interp.New(), sup)
		res, err := r.Run(b, 20)
		if err != nil {
			t.Fatalf("%s: %v", sup.Name(), err)
		}
		if res.Stats.PageWalks == 0 {
			t.Errorf("%s: MMU apparently not enabled (no walks)", sup.Name())
		}
	}
}

func TestEnvMappings(t *testing.T) {
	env := &Env{}
	env.Map(0x1000, 0x2000, isa.PageSize, true, false)
	env.Map(0x3000, 0x4000, isa.PageSize, false, true)
	ms := env.Mappings()
	if len(ms) != 2 || ms[0].VA != 0x1000 || !ms[1].U {
		t.Errorf("mappings %+v", ms)
	}
}

func TestCategories(t *testing.T) {
	if len(Categories()) != 6 {
		t.Error("six categories")
	}
}

func TestGuestEmittersClobberContract(t *testing.T) {
	// The emitters must only clobber the registers they document:
	// run a program that checks R5 survives Begin/End.
	b := &Benchmark{
		Name: "test.clobber", Title: "clobber", Category: CatIO, PaperIters: 1,
		TestedOps: func(*Result) uint64 { return 1 },
		Build: func(env *Env) error {
			a := env.A
			EmitPreamble(env)
			a.MOVI(isa.R5, 77)
			EmitBegin(env, isa.R0)
			EmitEnd(env, isa.R0)
			EmitResult(env, isa.R5, isa.R0)
			EmitHalt(env)
			EmitVectors(env, Handlers{})
			return nil
		},
		Validate: func(r *Result) error {
			if r.GuestResults[0] != 77 {
				return errSentinel
			}
			return nil
		},
	}
	r := NewRunner(interp.New(), arch.ARM{})
	if _, err := r.Run(b, 1); err != nil {
		t.Fatal(err)
	}
}
