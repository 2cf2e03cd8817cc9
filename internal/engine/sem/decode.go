package sem

import (
	"simbench/internal/engine"
	"simbench/internal/isa"
	"simbench/internal/mem"
)

const insnsPerPage = isa.PageSize / isa.WordBytes

// DecodedPage caches lazily decoded instructions for one physical
// page. Invalidation is O(1): bumping gen makes every stamp stale, and
// instructions are re-decoded on demand — which is why self-modifying
// code is nearly free on an engine with a decode cache, unlike on a
// DBT.
type DecodedPage struct {
	insts [insnsPerPage]isa.Inst
	stamp [insnsPerPage]uint32
	gen   uint32

	// The page knows where its code lives so that Inst takes one
	// argument and stays cheap enough for the compiler to inline into
	// the engines' fetch loops.
	bus  *mem.Bus
	base uint32 // physical base of the page
}

// Inst returns the instruction in word i of this page, decoding it if
// it was never decoded or the page was stored to since. What the
// result points to changes only when that word is decoded again.
func (dp *DecodedPage) Inst(i uint32) *isa.Inst {
	if dp.stamp[i] != dp.gen {
		dp.decode(i)
	}
	return &dp.insts[i]
}

func (dp *DecodedPage) decode(i uint32) {
	dp.insts[i] = isa.Decode(dp.bus.ReadWordRAM(dp.base | i<<2))
	dp.stamp[i] = dp.gen
}

// Word returns the index within its page of the word at address a.
func Word(a uint32) uint32 { return (a & isa.PageMask) >> 2 }

// DecodeCache is one hart's decode cache: a DecodedPage per physical
// page it has fetched from.
type DecodeCache struct {
	bus   *mem.Bus
	pages map[uint32]*DecodedPage // physical page index -> decoded
	code  []bool                  // physical page index -> has cached decodes
}

// NewDecodeCache returns an empty decode cache for code in bus's RAM.
func NewDecodeCache(bus *mem.Bus) DecodeCache {
	return DecodeCache{
		bus:   bus,
		pages: make(map[uint32]*DecodedPage),
		code:  make([]bool, (len(bus.RAM)+isa.PageSize-1)/isa.PageSize),
	}
}

// Page returns the decoded page holding pa, creating it, and counting
// it in st.PagesDecoded, on first use.
func (c *DecodeCache) Page(pa uint32, st *engine.Stats) *DecodedPage {
	page := pa >> isa.PageShift
	dp := c.pages[page]
	if dp == nil {
		dp = &DecodedPage{gen: 1, bus: c.bus, base: page << isa.PageShift}
		c.pages[page] = dp
		c.code[page] = true
		st.PagesDecoded++
	}
	return dp
}

// Inst returns the instruction at pa: Page(pa, st).Inst(Word(pa)). It
// is the fetch-miss path, taken when an engine's fetch fast path does
// not hold pa's page. It is too large to inline, so a fetch miss costs
// a call, as it did when each engine decoded through its own function;
// that cost is part of what the inter-page control-flow benchmarks
// measure.
func (c *DecodeCache) Inst(pa uint32, st *engine.Stats) *isa.Inst {
	return c.Page(pa, st).Inst(Word(pa))
}

// NoteStore stales this cache's decodes of the page a RAM store to pa
// hit, counting an SMC invalidation if it held any. The page stays
// allocated; only its generation advances.
func (c *DecodeCache) NoteStore(pa uint32, st *engine.Stats) {
	if page := pa >> isa.PageShift; int(page) < len(c.code) && c.code[page] {
		c.invalidate(page, st)
	}
}

func (c *DecodeCache) invalidate(page uint32, st *engine.Stats) {
	if dp := c.pages[page]; dp != nil {
		dp.gen++
	}
	st.SMCInvalidations++
}
