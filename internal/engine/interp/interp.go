// Package interp implements the fast-interpreter engine, modelled on
// SimIt-ARM as characterised in the paper's Fig. 4: instructions are
// decoded on demand into a per-physical-page decode cache, data
// accesses go through a single-level page cache, and interrupts are
// recognised at every instruction boundary. There is no code
// generation, so self-modifying code costs almost nothing — the
// behaviour that makes SimIt-ARM beat QEMU on the Code Generation
// benchmarks.
//
// Its instruction semantics are the shared ones of package sem; it is
// the oracle the other engines are differentially tested against.
package interp

import (
	"simbench/internal/engine"
	"simbench/internal/engine/sem"
	"simbench/internal/isa"
	"simbench/internal/machine"
)

const (
	dcacheBits = 8 // single-level data page cache: 256 entries
	dcacheSize = 1 << dcacheBits
	fcacheBits = 6 // fetch page cache: 64 entries
	fcacheSize = 1 << fcacheBits
)

// tlbEntry is one slot of the single-level page caches.
type tlbEntry struct {
	tag   uint32 // vpage | 1 (bit0 = valid; vpage low bit is always 0 after <<12 split)
	pbase uint32 // physical page base
	flags uint8  // sem.Write | sem.User | sem.RAM
}

// hart is the per-core interpreter state: the machine it drives plus
// the translation and decode caches that must stay private to one
// core. It registers itself as that core's TLB listener, so cross-core
// shootdowns invalidate exactly the caches of the harts they target.
type hart struct {
	m     *machine.Machine
	dc    [dcacheSize]tlbEntry
	fc    [fcacheSize]tlbEntry
	code  sem.DecodeCache
	insns uint64 // retired on this hart

	// fetchEpoch advances on every TLB invalidation that reaches this
	// hart. runSlice keeps a one-entry fetch-translation micro-cache in
	// locals; comparing its epoch snapshot against this counter is what
	// lets a shootdown (TLBI on this hart or a cross-core broadcast)
	// kill the cached translation without runSlice polling the fc array.
	fetchEpoch uint32
}

// InvalidatePage implements machine.TLBListener.
func (h *hart) InvalidatePage(va uint32) {
	vp := va >> isa.PageShift
	d := &h.dc[vp&(dcacheSize-1)]
	if d.tag == vp<<1|1 {
		d.tag = 0
	}
	f := &h.fc[vp&(fcacheSize-1)]
	if f.tag == vp<<1|1 {
		f.tag = 0
	}
	h.fetchEpoch++
}

// InvalidateAll implements machine.TLBListener.
func (h *hart) InvalidateAll() {
	h.dc = [dcacheSize]tlbEntry{}
	h.fc = [fcacheSize]tlbEntry{}
	h.fetchEpoch++
}

// Interp is the fast-interpreter engine. The zero value is not usable;
// call New.
type Interp struct {
	m     *machine.Machine // current hart's machine
	h     *hart            // current hart's caches
	harts []*hart
	st    engine.Stats

	// profile enables architectural-event classification (taken-branch
	// direct/indirect × intra/inter-page counters) used by the
	// operation-density experiment (paper Fig. 3).
	profile bool
}

// New returns a fast-interpreter engine.
func New() *Interp { return &Interp{} }

// NewProfiling returns an interpreter that additionally classifies
// control-flow events; it is the reference profiler behind the
// operation-density table.
func NewProfiling() *Interp { return &Interp{profile: true} }

// classifyBranch records a taken branch for the density profile.
func (e *Interp) classifyBranch(pc, target uint32, indirect bool) {
	intra := pc>>isa.PageShift == target>>isa.PageShift
	switch {
	case indirect && intra:
		e.st.BranchIndirectIntra++
	case indirect:
		e.st.BranchIndirectInter++
	case intra:
		e.st.BranchDirectIntra++
	default:
		e.st.BranchDirectInter++
	}
}

// Name implements engine.Engine. The profiling variant names itself
// distinctly: classification changes what a run costs, so a profiled
// measurement must never share a content-addressed cell (whose
// engine fingerprint is this name plus the feature metadata) with a
// plain interpreter run.
func (e *Interp) Name() string {
	if e.profile {
		return "interp-profile"
	}
	return "interp"
}

// Features implements engine.Engine (the paper's Fig. 4 SimIt-ARM row).
func (e *Interp) Features() engine.Features {
	return engine.Features{
		ExecutionModel: "Fast Interpreter",
		MemoryAccess:   "Single-Level Page Cache",
		CodeGeneration: "None",
		CtrlFlowInter:  "Interpreted",
		CtrlFlowIntra:  "Interpreted",
		Interrupts:     "Instruction Boundaries",
		SyncExceptions: "Interpreted",
		UndefInsn:      "Interpreted",
	}
}

// reset builds one hart context per machine and registers each as its
// core's TLB listener.
func (e *Interp) reset(harts []*machine.Machine) {
	e.st = engine.Stats{}
	e.harts = make([]*hart, len(harts))
	for i, m := range harts {
		h := &hart{m: m, code: sem.NewDecodeCache(m.Bus)}
		m.ClearTLBListeners()
		m.AddTLBListener(h)
		e.harts[i] = h
	}
	e.attach(e.harts[0])
}

// attach makes h the current hart.
func (e *Interp) attach(h *hart) {
	e.h = h
	e.m = h.m
}

// translate resolves va for a data access. asUser forces user-mode
// permission checks (LDT/STT). It fills the single-level cache.
func (e *Interp) translate(va uint32, write, asUser bool) (pa uint32, flags uint8, fault isa.FaultCode) {
	m := e.m
	if !m.MMUEnabled() {
		return va, sem.PhysFlags(m.Bus, va), isa.FaultNone
	}
	vp := va >> isa.PageShift
	ent := &e.h.dc[vp&(dcacheSize-1)]
	if ent.tag != vp<<1|1 {
		e.st.TLBMisses++
		pte, _, f := sem.Walk(m, &e.st, va)
		if f != isa.FaultNone {
			return 0, 0, f
		}
		*ent = tlbEntry{tag: vp<<1 | 1, pbase: pte.PhysPage, flags: sem.Flags(m.Bus, pte)}
	} else {
		e.st.TLBHits++
	}
	if f := sem.Check(m, ent.flags, write, asUser); f != isa.FaultNone {
		return 0, 0, f
	}
	return ent.pbase | va&isa.PageMask, ent.flags, isa.FaultNone
}

// fetchPage resolves the physical page for an instruction fetch.
func (e *Interp) fetchPage(pc uint32) (pbase uint32, fault isa.FaultCode) {
	m := e.m
	if !m.MMUEnabled() {
		if !m.Bus.IsRAM(pc, isa.WordBytes) {
			return 0, isa.FaultBus
		}
		return pc &^ isa.PageMask, isa.FaultNone
	}
	vp := pc >> isa.PageShift
	ent := &e.h.fc[vp&(fcacheSize-1)]
	if ent.tag != vp<<1|1 {
		pte, _, f := sem.Walk(m, &e.st, pc)
		if f != isa.FaultNone {
			return 0, f
		}
		flags := sem.Flags(m.Bus, pte)
		if flags&sem.RAM == 0 {
			return 0, isa.FaultBus
		}
		*ent = tlbEntry{tag: vp<<1 | 1, pbase: pte.PhysPage, flags: flags}
	}
	if f := sem.Check(m, ent.flags, false, false); f != isa.FaultNone {
		return 0, f
	}
	return ent.pbase, isa.FaultNone
}

// noteStore stales cached decodes of the stored page on every hart:
// RAM is shared, so a store by any hart reaches every hart's code.
func (e *Interp) noteStore(pa uint32) {
	for _, h := range e.harts {
		h.code.NoteStore(pa, &e.st)
	}
}

// Run implements engine.Engine: round-robin over runnable harts in
// SchedQuantum slices. The tick and interrupt checks key off each
// hart's own retired count, so a single-hart run executes exactly the
// instruction stream the pre-SMP engine did.
func (e *Interp) Run(harts []*machine.Machine, limit uint64) (engine.Stats, error) {
	e.reset(harts)
	err := sem.Run(harts, &e.st, func(i int, total *uint64) error {
		return e.runSlice(e.harts[i], total, limit)
	})
	return e.st, err
}

// runSlice executes up to SchedQuantum instructions on h. The loop
// body is the interpreter's hottest code, so two pieces of work that
// the straightforward form repays every instruction are hoisted out:
//
//   - The tick check. Instead of a modulo per instruction, tickAt
//     holds the next retired-count boundary at which TickFn fires; the
//     loop compares against it and advances it by sem.TickQuantum when
//     an instruction retires past it. Non-retiring iterations (IRQ
//     delivery, fetch faults) leave insns — and therefore a boundary
//     that is due — unchanged, exactly like the modulo form.
//
//   - The fetch translation. A one-entry micro-cache in locals keeps
//     the last fetch page's decoded page; straight-line and intra-page
//     code skips fetchPage and the decode-cache map lookup entirely.
//     The guard re-checks everything the full path would consult:
//     virtual page, privilege mode (fetchPage does a per-call
//     user-permission check), MMU enable, and the hart's invalidation
//     epoch. Self-modifying code needs no guard because
//     DecodedPage.Inst rechecks the word's decode stamp on every call.
//     A fetch-cache hit counts no stats, so serving hits from the
//     micro-cache changes no counter.
func (e *Interp) runSlice(h *hart, total *uint64, limit uint64) error {
	e.attach(h)
	m := h.m
	cpu := &m.CPU
	stop := h.insns + engine.SchedQuantum

	tickAt := ^uint64(0) // never fires while TickFn is nil
	if m.TickFn != nil {
		if h.insns%sem.TickQuantum == 0 && h.insns != 0 {
			tickAt = h.insns // slice starts on a due boundary
		} else {
			tickAt = h.insns + sem.TickQuantum - h.insns%sem.TickQuantum
		}
	}

	var (
		fetchVP     = ^uint32(0)     // virtual page of the cached fetch (^0 = none)
		fetchDP     *sem.DecodedPage // its decode cache
		fetchKernel bool             // privilege mode it was resolved under
		fetchMMU    bool             // MMU enable it was resolved under
		fetchEpoch  = h.fetchEpoch
	)

	for !m.Halted && h.insns < stop {
		if *total >= limit {
			return engine.ErrLimit
		}
		if h.insns == tickAt {
			m.TickFn(sem.TickQuantum)
		}
		if m.IRQPending() {
			sem.IRQ(m, &e.st)
			continue
		}

		pc := cpu.PC
		var in *isa.Inst
		if pc>>isa.PageShift == fetchVP && cpu.Kernel == fetchKernel &&
			m.MMUEnabled() == fetchMMU && h.fetchEpoch == fetchEpoch {
			in = fetchDP.Inst(sem.Word(pc))
		} else {
			pbase, fault := e.fetchPage(pc)
			if fault != isa.FaultNone {
				sem.FetchFault(m, &e.st, fault, pc)
				fetchVP = ^uint32(0)
				continue
			}
			in = h.code.Inst(pbase|pc&isa.PageMask, &e.st)
			// Cache the translation only when every word of the page is
			// RAM: always true under the MMU (fetchPage requires it when
			// filling the fc), and checked explicitly for the physical
			// tail page when the MMU is off — fetchPage validates
			// IsRAM(pc, WordBytes) per call there, which the fast path
			// must not weaken mid-page. The page is looked up a second
			// time on purpose: a fetch miss costs two decode-cache
			// lookups, and that cost is part of what the inter-page
			// control-flow benchmarks measure on this engine.
			if m.MMUEnabled() || m.Bus.IsRAM(pbase, isa.PageSize) {
				fetchVP = pc >> isa.PageShift
				fetchDP = h.code.Page(pbase, &e.st)
				fetchKernel = cpu.Kernel
				fetchMMU = m.MMUEnabled()
				fetchEpoch = h.fetchEpoch
			} else {
				fetchVP = ^uint32(0)
			}
		}
		h.insns++
		*total++
		if h.insns > tickAt {
			tickAt += sem.TickQuantum
		}

		switch va, k := sem.Exec(m, *in, &e.st, pc); k {
		case sem.Taken:
			if e.profile {
				e.classifyBranch(pc, cpu.PC, in.Op == isa.OpBR || in.Op == isa.OpBLR)
			}
		case sem.LoadOp:
			pa, flags, fault := e.translate(va, false, in.Op == isa.OpLDT)
			sem.Load(m, *in, &e.st, pc, va, pa, flags, fault)
		case sem.StoreOp:
			pa, flags, fault := e.translate(va, true, in.Op == isa.OpSTT)
			if sem.Store(m, *in, &e.st, pc, va, pa, flags, fault) == sem.StoredRAM {
				e.noteStore(pa)
			}
		case sem.LoadExOp:
			pa, flags, fault := e.translate(va, false, false)
			sem.LoadEx(m, *in, &e.st, pc, va, pa, flags, fault)
		case sem.StoreExOp:
			pa, flags, fault := e.translate(va, true, false)
			if sem.StoreEx(m, *in, &e.st, pc, va, pa, flags, fault) == sem.StoredRAM {
				e.noteStore(pa)
			}
		case sem.CoprocOp:
			if !sem.Coproc(m, *in, &e.st, pc) {
				sem.Undefined(m, &e.st, pc)
			}
		case sem.Undef:
			sem.Undefined(m, &e.st, pc)
		}
	}
	return nil
}
