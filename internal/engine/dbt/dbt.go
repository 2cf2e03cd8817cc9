// Package dbt implements the dynamic-binary-translation engine, the
// QEMU-DBT analogue of the paper's Fig. 4: guest code is translated
// block-by-block into a micro-op IR, cached in a physically indexed
// translation cache, looked up through a virtually indexed jump cache,
// and chained to same-page direct successors. Memory runs through a
// multi-level softMMU page cache, synchronous exceptions take side
// exits, and interrupts are recognised at block boundaries.
//
// The engine is parameterised by a Config whose fields switch real code
// paths; the internal/versions package uses this to model twenty QEMU
// releases for the paper's version-sweep experiments.
package dbt

import (
	"fmt"

	"simbench/internal/engine"
	"simbench/internal/engine/sem"
	"simbench/internal/isa"
	"simbench/internal/machine"
)

const (
	jmpBits = 12 // 4096-entry jump caches
	jmpSize = 1 << jmpBits
)

// Engine is the DBT engine. Create one with New.
type Engine struct {
	cfg   Config
	m     *machine.Machine // current hart's machine
	h     *hart            // current hart
	harts []*hart
	st    engine.Stats

	walkScratch  uint32
	checkScratch uint32
	syncBuf      []uint32
	helperBuf    []uint32
	stateWords   [64]uint32
	tcgCtx       [256]uint64 // translation context (temp pools, op and label buffers), reset per block
	relocBuf     []uint32    // relocation worklist, reused across translations
}

// hart is the per-core slice of engine state: translation cache, jump
// caches, chain epochs and softMMU mirror QEMU's per-vCPU structures,
// so each simulated core translates and chains independently.
type hart struct {
	e *Engine
	m *machine.Machine

	blocks     map[uint32]*block // physical start address -> block
	jmpCache   [jmpSize]*block   // virtually indexed, first probe
	jmpCache2  [jmpSize]*block   // second probe layer (LookupDepth >= 2)
	jmpEpoch   [jmpSize]uint32   // per-slot flush epochs (LazyFlush)
	jmpEpoch2  [jmpSize]uint32
	flushEpoch uint32   // current jump-cache flush epoch
	pageGen    []uint32 // per physical page generation (SMC)
	codePages  []bool   // physical pages containing translated code
	chainEpoch uint32   // bumped on TLB maintenance; breaks chains

	dtlb *softTLB
	itlb *softTLB

	insns    uint64 // retired instructions on this hart
	lastTick uint64 // retired count at the last timer tick

	// Dispatch state carried across scheduling slices, so rotation at
	// a block boundary resumes exactly where the hart left off.
	b  *block
	ok bool
}

// New returns a DBT engine with the given configuration.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults()}
}

// NewDefault returns a DBT engine with the modern default configuration.
func NewDefault() *Engine { return New(DefaultConfig()) }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "dbt" }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Features implements engine.Engine (the paper's Fig. 4 QEMU-DBT row).
func (e *Engine) Features() engine.Features {
	return engine.Features{
		ExecutionModel: "DBT",
		MemoryAccess:   "Multi-Level Page Cache",
		CodeGeneration: "Block-Based",
		CtrlFlowInter:  "Block Cache",
		CtrlFlowIntra:  "Block Chaining",
		Interrupts:     "Block Boundaries",
		SyncExceptions: "Side Exit",
		UndefInsn:      "Translated",
	}
}

// InvalidatePage implements machine.TLBListener.
func (h *hart) InvalidatePage(va uint32) {
	h.dtlb.flushPage(va)
	h.itlb.flushPage(va)
	hs := jmpHash(va)
	if b := h.jmpCache[hs]; b != nil && b.va == va {
		h.jmpCache[hs] = nil
	}
	if b := h.jmpCache2[jmpHash2(va)]; b != nil && b.va == va {
		h.jmpCache2[jmpHash2(va)] = nil
	}
	// A mapping change can redirect a chained target, so chains must be
	// re-established through full lookups.
	h.chainEpoch++
}

// InvalidateAll implements machine.TLBListener. The jump caches are
// either zeroed eagerly or, with LazyFlush, invalidated by an epoch
// bump with per-slot revalidation at probe time.
func (h *hart) InvalidateAll() {
	if h.dtlb == nil {
		return
	}
	h.dtlb.flushAll()
	h.itlb.flushAll()
	if h.e.cfg.LazyFlush {
		h.flushEpoch++
	} else {
		h.jmpCache = [jmpSize]*block{}
		h.jmpCache2 = [jmpSize]*block{}
	}
	h.chainEpoch++
}

func jmpHash(va uint32) uint32  { return (va >> 2) & (jmpSize - 1) }
func jmpHash2(va uint32) uint32 { return (va * 2654435761) >> (32 - jmpBits) }

func (e *Engine) reset(harts []*machine.Machine) {
	e.st = engine.Stats{}
	e.syncBuf = make([]uint32, e.cfg.ExcSyncWords)
	e.helperBuf = make([]uint32, e.cfg.HelperSaveWords)
	e.harts = e.harts[:0]
	for _, m := range harts {
		h := &hart{e: e, m: m}
		h.blocks = make(map[uint32]*block)
		pages := (len(m.Bus.RAM) + isa.PageSize - 1) / isa.PageSize
		h.pageGen = make([]uint32, pages)
		h.codePages = make([]bool, pages)
		h.dtlb = newSoftTLB(e.cfg.TLBBits, e.cfg.VictimTLB)
		h.itlb = newSoftTLB(e.cfg.TLBBits, false)
		m.ClearTLBListeners()
		m.AddTLBListener(h)
		e.harts = append(e.harts, h)
	}
	e.attach(e.harts[0])
}

// attach makes h the current hart for the dispatch and memory paths.
func (e *Engine) attach(h *hart) {
	e.h = h
	e.m = h.m
}

// valid reports whether a block's translation is still current.
func (e *Engine) valid(b *block) bool {
	return b.gen == e.h.pageGen[b.physPage]
}

// lookup finds or translates the block at va. ok is false if the fetch
// faulted, in which case the exception has been entered and the caller
// should re-dispatch from the new PC.
//
// Every lookup — even a jump-cache hit — first recomputes the CPU
// state tuple and validates the candidate against it (QEMU's
// cpu_get_tb_cpu_state + tb field comparison). This is the per-
// transition cost that block chaining exists to avoid.
func (e *Engine) lookup(va uint32) (b *block, ok bool) {
	ht := e.h
	cpu := &e.m.CPU
	flags := uint32(0)
	if cpu.Kernel {
		flags = 1
	}
	if cpu.IRQOn {
		flags |= 2
	}
	flags |= e.m.CPU.Ctrl[isa.CtrlMMU] << 2
	stateHash := (va >> 2) * 2654435761
	stateHash ^= flags * 0x9E3779B9
	stateHash ^= ht.chainEpoch

	validate := func(b *block) bool {
		// Field-by-field comparison, as the translation-cache probe
		// performs: pc, page generation, flags compatibility.
		if b.va != va || !e.valid(b) {
			return false
		}
		e.checkScratch ^= stateHash ^ b.end ^ uint32(b.insns)<<16 ^ b.liveIn
		if e.cfg.LookupDepth >= 3 {
			// Deep validation: cross-check a window of the emitted
			// host code against the descriptor.
			sum := uint32(0)
			hc := b.hostCode
			for i := 0; i < 2 && i < len(hc); i++ {
				sum = sum<<3 ^ hc[i]
			}
			e.checkScratch ^= sum
		}
		return true
	}

	hs := jmpHash(va)
	if b := ht.jmpCache[hs]; b != nil && ht.jmpEpoch[hs] == ht.flushEpoch && validate(b) {
		return b, true
	}
	var h2 uint32
	if e.cfg.LookupDepth >= 2 {
		h2 = jmpHash2(va)
		if b := ht.jmpCache2[h2]; b != nil && ht.jmpEpoch2[h2] == ht.flushEpoch && validate(b) {
			ht.jmpCache[hs] = b // promote
			ht.jmpEpoch[hs] = ht.flushEpoch
			return b, true
		}
	}
	e.st.CacheLookups++
	pa, fault := e.codeAccess(va)
	if fault != isa.FaultNone {
		e.enterExc(isa.ExcInstFault, va)
		e.m.EnterMemFault(isa.ExcInstFault, fault, va, false, va)
		return nil, false
	}
	b = ht.blocks[pa]
	if b == nil || !e.valid(b) || b.va != va {
		b = e.translate(va, pa)
	}
	ht.jmpCache[hs] = b
	ht.jmpEpoch[hs] = ht.flushEpoch
	if e.cfg.LookupDepth >= 2 {
		ht.jmpCache2[h2] = b
		ht.jmpEpoch2[h2] = ht.flushEpoch
	}
	return b, true
}

// enterExc performs the per-exception bookkeeping all exception classes
// share: serialising ExcSyncWords of auxiliary state. (Machine.Enter is
// called separately because fault entries carry extra arguments.)
func (e *Engine) enterExc(exc isa.Exc, _ uint32) {
	buf := e.syncBuf
	for i := range buf {
		buf[i] = e.stateWords[i&63] + uint32(i)
		e.stateWords[i&63] = buf[i] ^ uint32(exc)
	}
	e.st.ExceptionsTaken++
}

// restoreState models QEMU's cpu_restore_state: recover precise guest
// state at a faulting instruction by re-running the translator over
// the block, replaying the emitted stream to locate the faulting
// micro-op, and resynchronising the softMMU view. The data-fault fast
// path (v2.5.0-rc0) skips all of this.
func (e *Engine) restoreState(b *block) {
	pa := b.physPage | (b.va & isa.PageMask)
	saved := e.st // retranslation is recovery work, not new code generation
	nb := e.translate(b.va, pa)
	e.st.BlocksTranslated = saved.BlocksTranslated
	e.st.InsnsTranslated = saved.InsnsTranslated
	// Replay the host stream against the retranslated block to map the
	// host fault point back to a guest instruction.
	acc := uint32(0)
	for pass := 0; pass < 4; pass++ {
		for i := range nb.hostCode {
			acc = acc*33 + nb.hostCode[i] + uint32(pass)
		}
	}
	// Resynchronise the softMMU state the faulting access touched.
	for i := range e.stateWords {
		e.stateWords[i] ^= acc + uint32(i)
		acc = acc<<7 | acc>>25
	}
	e.checkScratch ^= acc
}

// helperCall brackets a device or coprocessor access with CPU-state
// save/restore, the per-helper overhead that grew across QEMU versions.
func (e *Engine) helperCall() {
	buf := e.helperBuf
	for i := range buf {
		buf[i] = e.stateWords[i&63]
	}
	for i := range buf {
		e.stateWords[i&63] ^= buf[i] >> 1
	}
}

// noteStore detects stores into pages holding translated code and
// invalidates them by bumping the page generation. Invalidation is
// page-granular and takes effect at the next block entry: a store that
// patches an instruction *later in the currently executing block*
// completes the block on the stale translation, exactly like QEMU
// without tb_invalidate-time precise restart. All SimBench code-
// generation patterns (patch, then branch/call into the patched code)
// re-enter through the dispatcher and observe the invalidation.
func (e *Engine) noteStore(pa uint32) {
	page := pa >> isa.PageShift
	if len(e.harts) > 1 {
		// RAM is shared: a store from any hart invalidates translated
		// code on every hart that holds blocks from that page.
		for _, h := range e.harts {
			if int(page) < len(h.codePages) && h.codePages[page] {
				h.pageGen[page]++
				h.codePages[page] = false
				e.st.SMCInvalidations++
			}
		}
		return
	}
	h := e.h
	if int(page) < len(h.codePages) && h.codePages[page] {
		h.pageGen[page]++
		h.codePages[page] = false
		e.st.SMCInvalidations++
	}
}

// Run implements engine.Engine.
func (e *Engine) Run(harts []*machine.Machine, limit uint64) (engine.Stats, error) {
	e.reset(harts)
	err := sem.Run(harts, &e.st, func(i int, total *uint64) error {
		return e.runSlice(e.harts[i], total, limit)
	})
	return e.st, err
}

// runSlice executes roughly one scheduling quantum on h: whole blocks
// run to completion, so the slice ends at the first block boundary at
// or past the quantum — the block-granular interleaving a DBT
// naturally has. Tick and limit checks key off the hart's own retired
// count, so at one core the instruction stream is bit-identical to the
// pre-SMP engine.
func (e *Engine) runSlice(h *hart, total *uint64, limit uint64) error {
	e.attach(h)
	m := h.m
	cpu := &m.CPU
	stop := h.insns + engine.SchedQuantum
	for !m.Halted && h.insns < stop {
		if *total >= limit {
			return engine.ErrLimit
		}
		if m.TickFn != nil && h.insns-h.lastTick >= sem.TickQuantum {
			m.TickFn(uint32(h.insns - h.lastTick))
			h.lastTick = h.insns
		}
		// Interrupts are recognised at block boundaries only.
		if m.IRQPending() {
			e.enterExc(isa.ExcIRQ, cpu.PC)
			m.Enter(isa.ExcIRQ, cpu.PC)
			e.st.IRQsDelivered++
			h.b, h.ok = e.lookup(cpu.PC)
			continue
		}
		if !h.ok {
			h.b, h.ok = e.lookup(cpu.PC)
			continue
		}
		b := h.b
		if !e.valid(b) {
			h.b, h.ok = e.lookup(b.va)
			continue
		}
		e.st.BlockExecutions++

		kind, target, retired := e.exec(b)
		h.insns += retired
		*total += retired

		switch kind {
		case exitFall:
			cpu.PC = b.fallVA
			h.b, h.ok = e.follow(b, &b.nextFall, &b.fallEpoch, b.fallVA)
		case exitTaken:
			cpu.PC = target
			if target == b.takenVA {
				h.b, h.ok = e.follow(b, &b.nextTaken, &b.takenEpoch, target)
			} else {
				h.b, h.ok = e.lookup(target)
			}
		case exitIndirect:
			cpu.PC = target
			h.b, h.ok = e.lookup(target)
		case exitException:
			h.b, h.ok = e.lookup(cpu.PC)
		case exitHalt:
			// loop exits via m.Halted
		}
	}
	return nil
}

// follow takes a (potentially chained) transition to va. The chain slot
// is used when the policy allows and the cached link is still valid;
// otherwise a full lookup runs and, for same-page targets, re-establishes
// the link.
func (e *Engine) follow(b *block, slot **block, epoch *uint32, va uint32) (*block, bool) {
	if nb := *slot; nb != nil && e.cfg.Chain != ChainNone && *epoch == e.h.chainEpoch {
		switch e.cfg.Chain {
		case ChainDirect:
			if e.valid(nb) {
				e.st.ChainFollows++
				return nb, true
			}
		case ChainChecked:
			// The safer scheme revalidates the target address and
			// rescans a window of the host code before trusting it.
			if e.valid(nb) && nb.va == va {
				sum := uint32(0)
				hc := nb.hostCode
				for i := 0; i < 4 && i < len(hc); i++ {
					sum ^= hc[i]
				}
				e.checkScratch ^= sum
				e.st.ChainFollows++
				return nb, true
			}
		}
	}
	nb, ok := e.lookup(va)
	if ok && e.cfg.Chain != ChainNone && samePage(b.va, va) {
		*slot = nb
		*epoch = e.h.chainEpoch
	}
	return nb, ok
}

func samePage(a, b uint32) bool { return a>>isa.PageShift == b>>isa.PageShift }

// String describes the engine and its configuration.
func (e *Engine) String() string {
	s := fmt.Sprintf("dbt(%s: opt=%d chain=%s lookup=%d tlb=2^%d victim=%v dfp=%v",
		e.cfg.Name, e.cfg.OptLevel, e.cfg.Chain, e.cfg.LookupDepth,
		e.cfg.TLBBits, e.cfg.VictimTLB, e.cfg.DataFaultFastPath)
	if segs, insns := e.cfg.superblockCap(); segs > 1 {
		s += fmt.Sprintf(" sb=%dx%d", segs, insns)
	}
	return s + ")"
}
