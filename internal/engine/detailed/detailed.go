// Package detailed implements the detailed-interpreter engine, modelled
// on Gem5 (non-cycle-accurate configuration) as characterised in the
// paper's Fig. 4: every instruction is decoded afresh, data and
// instruction accesses go through a modelled set-associative TLB with
// LRU replacement and a multi-step table walker, and every instruction
// is pushed through a five-stage pipeline event model with detailed
// statistics. The machinery is what makes detailed simulators one to
// two orders of magnitude slower than fast interpreters — the gap the
// Code Generation and Control Flow benchmarks quantify.
package detailed

import (
	"simbench/internal/engine"
	"simbench/internal/engine/sem"
	"simbench/internal/isa"
	"simbench/internal/machine"
)

const (
	tlbSets = 16
	tlbWays = 4
)

type tlbEntry struct {
	tag   uint32 // vpage<<1 | valid
	pbase uint32
	flags uint8 // sem.Write | sem.User | sem.RAM
	lru   uint64
}

// modelTLB is a set-associative TLB with true LRU replacement — a
// hardware-like structure rather than a simulator page cache.
type modelTLB struct {
	sets      [tlbSets][tlbWays]tlbEntry
	clock     uint64
	evictions uint64
}

func (t *modelTLB) lookup(vpage uint32) (*tlbEntry, bool) {
	set := &t.sets[vpage%tlbSets]
	tag := vpage<<1 | 1
	for w := range set {
		if set[w].tag == tag {
			t.clock++
			set[w].lru = t.clock
			return &set[w], true
		}
	}
	return nil, false
}

func (t *modelTLB) fill(vpage uint32, ent tlbEntry) {
	set := &t.sets[vpage%tlbSets]
	victim := 0
	for w := 1; w < tlbWays; w++ {
		if set[w].tag&1 == 0 {
			victim = w
			break
		}
		if set[w].lru < set[victim].lru {
			victim = w
		}
	}
	if set[victim].tag&1 != 0 {
		t.evictions++
	}
	t.clock++
	ent.tag = vpage<<1 | 1
	ent.lru = t.clock
	set[victim] = ent
}

func (t *modelTLB) flushPage(va uint32) {
	vpage := va >> isa.PageShift
	set := &t.sets[vpage%tlbSets]
	tag := vpage<<1 | 1
	for w := range set {
		if set[w].tag == tag {
			set[w] = tlbEntry{}
		}
	}
}

func (t *modelTLB) flushAll() { t.sets = [tlbSets][tlbWays]tlbEntry{} }

// pipeline stage identifiers for the event model.
const (
	stFetch = iota
	stDecode
	stExecute
	stMem
	stWriteback
	numStages
)

// traceRec is one entry of the diagnostic trace ring every detailed
// simulator keeps: the instruction's pc, effective address (0 when it
// makes no data access), rd once it retired, and opcode.
type traceRec struct {
	pc, ea, res uint32
	op          uint8
}

// hart is the per-core slice of engine state: each simulated core
// models its own instruction and data TLBs, as on real hardware.
type hart struct {
	m     *machine.Machine
	itlb  modelTLB
	dtlb  modelTLB
	insns uint64 // retired instructions on this hart
}

// InvalidatePage implements machine.TLBListener.
func (h *hart) InvalidatePage(va uint32) {
	h.itlb.flushPage(va)
	h.dtlb.flushPage(va)
}

// InvalidateAll implements machine.TLBListener.
func (h *hart) InvalidateAll() {
	h.itlb.flushAll()
	h.dtlb.flushAll()
}

// Detailed is the detailed-interpreter engine.
type Detailed struct {
	m     *machine.Machine // current hart's machine
	h     *hart            // current hart
	harts []*hart
	st    engine.Stats

	tick                        uint64
	stageTicks                  [numStages]uint64
	opHist                      [isa.NumOps]uint64
	branchTaken, branchNotTaken uint64
	trace                       [256]traceRec
	traceHead                   int
	depScratch                  uint32

	mem *memHierarchy
	bp  branchPredictor
	evq []event
}

// New returns a detailed-interpreter engine.
func New() *Detailed { return &Detailed{} }

// Name implements engine.Engine.
func (e *Detailed) Name() string { return "detailed" }

// Features implements engine.Engine (the paper's Fig. 4 Gem5 row).
func (e *Detailed) Features() engine.Features {
	return engine.Features{
		ExecutionModel: "Interpreter",
		MemoryAccess:   "Modelled TLB",
		CodeGeneration: "None",
		CtrlFlowInter:  "Interpreted",
		CtrlFlowIntra:  "Interpreted",
		Interrupts:     "Instruction Boundaries",
		SyncExceptions: "Interpreted",
		UndefInsn:      "Interpreted",
	}
}

// Tick returns the modelled tick counter (one per pipeline event).
func (e *Detailed) Tick() uint64 { return e.tick }

// latency models a per-class execution latency in ticks.
func latency(op isa.Op) uint64 {
	switch op {
	case isa.OpMUL, isa.OpMULI:
		return 3
	case isa.OpLDW, isa.OpSTW, isa.OpLDB, isa.OpSTB, isa.OpLDT, isa.OpSTT,
		isa.OpLDX, isa.OpSTX:
		return 2
	default:
		return 1
	}
}

// record pushes one instruction through the pipeline event model and
// the statistics machinery. Every instruction schedules one event per
// pipeline stage into a priority queue and drains it in tick order —
// the event-driven core that detailed simulators are built around and
// the reason they are an order of magnitude slower than fast
// interpreters, whatever the instruction does.
func (e *Detailed) record(pc uint32, in isa.Inst, ea uint32) {
	lat := latency(in.Op)
	// Schedule the stage events with their per-stage delays.
	e.evq = e.evq[:0]
	base := e.tick
	for s := 0; s < numStages; s++ {
		d := uint64(s) + 1
		if s == stExecute {
			d += lat - 1
		}
		e.pushEvent(event{tick: base + d, stage: uint8(s), pc: pc})
	}
	// Extra micro-events: operand read and scoreboard release.
	e.pushEvent(event{tick: base + 1, stage: stDecode, pc: pc ^ uint32(in.Ra)})
	e.pushEvent(event{tick: base + lat + 2, stage: stWriteback, pc: pc ^ uint32(in.Rd)})
	// Drain in tick order, advancing the global clock.
	for len(e.evq) > 0 {
		ev := e.popEvent()
		if ev.tick > e.tick {
			e.tick = ev.tick
		}
		e.stageTicks[ev.stage] = e.tick
	}
	e.opHist[in.Op&(isa.NumOps-1)]++
	// Dependency bookkeeping: fold source/destination registers into a
	// running scoreboard word.
	e.depScratch = e.depScratch<<1 ^ uint32(in.Rd)<<8 ^ uint32(in.Ra)<<4 ^ uint32(in.Rb) ^ uint32(in.Op)
	e.trace[e.traceHead] = traceRec{pc: pc, ea: ea, res: e.m.CPU.Regs[in.Rd], op: uint8(in.Op)}
	e.traceHead = (e.traceHead + 1) & 255
}

// event is one scheduled pipeline event.
type event struct {
	tick  uint64
	stage uint8
	pc    uint32
}

// pushEvent inserts into the binary min-heap.
func (e *Detailed) pushEvent(ev event) {
	e.evq = append(e.evq, ev)
	i := len(e.evq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if e.evq[parent].tick <= e.evq[i].tick {
			break
		}
		e.evq[parent], e.evq[i] = e.evq[i], e.evq[parent]
		i = parent
	}
}

// popEvent removes the earliest event.
func (e *Detailed) popEvent() event {
	top := e.evq[0]
	last := len(e.evq) - 1
	e.evq[0] = e.evq[last]
	e.evq = e.evq[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(e.evq) && e.evq[l].tick < e.evq[small].tick {
			small = l
		}
		if r < len(e.evq) && e.evq[r].tick < e.evq[small].tick {
			small = r
		}
		if small == i {
			break
		}
		e.evq[i], e.evq[small] = e.evq[small], e.evq[i]
		i = small
	}
	return top
}

func (e *Detailed) reset(harts []*machine.Machine) {
	e.st = engine.Stats{}
	e.tick = 0
	e.opHist = [isa.NumOps]uint64{}
	if e.mem == nil {
		e.mem = newHierarchy()
	}
	e.mem.reset()
	e.bp.reset()
	e.harts = e.harts[:0]
	for _, m := range harts {
		h := &hart{m: m}
		m.ClearTLBListeners()
		m.AddTLBListener(h)
		e.harts = append(e.harts, h)
	}
	e.attach(e.harts[0])
}

// attach makes h the current hart for the step/translate fast paths.
func (e *Detailed) attach(h *hart) {
	e.h = h
	e.m = h.m
}

// translate resolves a data access through the modelled TLB, walking
// the in-memory tables on a miss.
func (e *Detailed) translate(va uint32, write, asUser bool) (pa uint32, flags uint8, fault isa.FaultCode) {
	m := e.m
	if !m.MMUEnabled() {
		return va, sem.PhysFlags(m.Bus, va), isa.FaultNone
	}
	vpage := va >> isa.PageShift
	dtlb := &e.h.dtlb
	ent, hit := dtlb.lookup(vpage)
	if !hit {
		e.st.TLBMisses++
		pte, levels, f := sem.Walk(m, &e.st, va)
		e.tick += uint64(levels) * 4 // walker events
		if f != isa.FaultNone {
			return 0, 0, f
		}
		dtlb.fill(vpage, tlbEntry{pbase: pte.PhysPage, flags: sem.Flags(m.Bus, pte)})
		ent, _ = dtlb.lookup(vpage)
	} else {
		e.st.TLBHits++
	}
	if f := sem.Check(m, ent.flags, write, asUser); f != isa.FaultNone {
		return 0, 0, f
	}
	return ent.pbase | va&isa.PageMask, ent.flags, isa.FaultNone
}

// fetch resolves the instruction address through the modelled ITLB.
func (e *Detailed) fetch(pc uint32) (pa uint32, fault isa.FaultCode) {
	m := e.m
	if !m.MMUEnabled() {
		if !m.Bus.IsRAM(pc, isa.WordBytes) {
			return 0, isa.FaultBus
		}
		return pc, isa.FaultNone
	}
	vpage := pc >> isa.PageShift
	itlb := &e.h.itlb
	ent, hit := itlb.lookup(vpage)
	if !hit {
		pte, levels, f := sem.Walk(m, &e.st, pc)
		e.tick += uint64(levels) * 4
		if f != isa.FaultNone {
			return 0, f
		}
		itlb.fill(vpage, tlbEntry{pbase: pte.PhysPage, flags: sem.Flags(m.Bus, pte)})
		ent, _ = itlb.lookup(vpage)
	}
	if f := sem.Check(m, ent.flags, false, false); f != isa.FaultNone {
		return 0, f
	}
	if ent.flags&sem.RAM == 0 {
		return 0, isa.FaultBus
	}
	return ent.pbase | pc&isa.PageMask, isa.FaultNone
}

// Run implements engine.Engine.
func (e *Detailed) Run(harts []*machine.Machine, limit uint64) (engine.Stats, error) {
	e.reset(harts)
	err := sem.Run(harts, &e.st, func(i int, total *uint64) error {
		return e.runSlice(e.harts[i], total, limit)
	})
	return e.st, err
}

// runSlice executes one scheduling quantum on h. The tick and limit
// checks key off the hart's own retired count, so at one core the
// instruction stream is bit-identical to the pre-SMP engine.
func (e *Detailed) runSlice(h *hart, total *uint64, limit uint64) error {
	e.attach(h)
	m := h.m
	cpu := &m.CPU
	stop := h.insns + engine.SchedQuantum
	for !m.Halted && h.insns < stop {
		if *total >= limit {
			return engine.ErrLimit
		}
		if m.TickFn != nil && h.insns%sem.TickQuantum == 0 && h.insns != 0 {
			m.TickFn(sem.TickQuantum)
		}
		if m.IRQPending() {
			sem.IRQ(m, &e.st)
			continue
		}
		pc := cpu.PC
		pa, fault := e.fetch(pc)
		if fault != isa.FaultNone {
			sem.FetchFault(m, &e.st, fault, pc)
			continue
		}
		e.tick += e.mem.fetchAccess(pa)
		// No decode cache: a fresh decode of the raw word every time.
		in := isa.Decode(m.Bus.ReadWordRAM(pa))
		h.insns++
		*total++
		e.step(in, pc)
	}
	return nil
}

// step executes one instruction with full detail accounting around the
// shared semantics: the branch predictor on branches, the cache
// hierarchy on data accesses, and the record hook for every
// instruction that retires (an undefined or faulting one does not).
func (e *Detailed) step(in isa.Inst, pc uint32) {
	m := e.m
	va, k := sem.Exec(m, in, &e.st, pc)
	switch k {
	case sem.Retired:
		e.record(pc, in, 0)
	case sem.Taken, sem.NotTaken:
		taken := k == sem.Taken
		if taken {
			e.branchTaken++
		} else {
			e.branchNotTaken++
		}
		e.tick += e.bp.predictAndTrain(pc, taken, m.CPU.PC)
		e.record(pc, in, 0)
	case sem.LoadOp:
		pa, flags, fault := e.translate(va, false, in.Op == isa.OpLDT)
		if fault == isa.FaultNone {
			e.tick += e.mem.dataAccess(pa, false)
		}
		if sem.Load(m, in, &e.st, pc, va, pa, flags, fault) != sem.Faulted {
			e.record(pc, in, va)
		}
	case sem.StoreOp:
		pa, flags, fault := e.translate(va, true, in.Op == isa.OpSTT)
		if fault == isa.FaultNone {
			e.tick += e.mem.dataAccess(pa, true)
		}
		if sem.Store(m, in, &e.st, pc, va, pa, flags, fault) != sem.Faulted {
			e.record(pc, in, va)
		}
	case sem.LoadExOp:
		// Exclusives reach the cache hierarchy only once the RAM-only
		// check has passed.
		pa, flags, fault := e.translate(va, false, false)
		if sem.LoadEx(m, in, &e.st, pc, va, pa, flags, fault) != sem.Faulted {
			e.tick += e.mem.dataAccess(pa, false)
			e.record(pc, in, va)
		}
	case sem.StoreExOp:
		pa, flags, fault := e.translate(va, true, false)
		if sem.StoreEx(m, in, &e.st, pc, va, pa, flags, fault) != sem.Faulted {
			e.tick += e.mem.dataAccess(pa, true)
			e.record(pc, in, va)
		}
	case sem.CoprocOp:
		if sem.Coproc(m, in, &e.st, pc) {
			e.record(pc, in, 0)
		} else {
			sem.Undefined(m, &e.st, pc)
		}
	case sem.Undef:
		sem.Undefined(m, &e.st, pc)
	}
}
