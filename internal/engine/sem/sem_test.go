package sem

import (
	"testing"

	"simbench/internal/engine"
	"simbench/internal/isa"
	"simbench/internal/machine"
)

func newMachine(t *testing.T, p machine.Profile) *machine.Machine {
	t.Helper()
	m := machine.New(p, 1<<16)
	t.Cleanup(m.Bus.Release)
	m.Reset()
	return m
}

// TestExecKinds pins what Exec does itself and what it hands back to
// the engine, op class by op class.
func TestExecKinds(t *testing.T) {
	const pc = 0x100
	for _, tc := range []struct {
		name    string
		profile machine.Profile
		user    bool
		in      isa.Inst
		kind    Kind
		v       uint32 // effective address of a data access
		nextPC  uint32 // 0: PC must not move
	}{
		{"add", machine.ProfileARM, false, isa.Inst{Op: isa.OpADD, Rd: 3, Ra: 1, Rb: 2}, Retired, 0, pc + 4},
		{"cmp", machine.ProfileARM, false, isa.Inst{Op: isa.OpCMP, Ra: 1, Rb: 2}, Retired, 0, pc + 4},
		{"mrs psr", machine.ProfileARM, true, isa.Inst{Op: isa.OpMRS, Rd: 3, Imm: int32(isa.CtrlPSR)}, Retired, 0, pc + 4},
		{"mrs vbar user", machine.ProfileARM, true, isa.Inst{Op: isa.OpMRS, Rd: 3, Imm: int32(isa.CtrlVBAR)}, Undef, 0, 0},
		{"b taken", machine.ProfileARM, false, isa.Inst{Op: isa.OpB, Cond: isa.CondAL, Off: 8}, Taken, 0, pc + 12},
		{"blr", machine.ProfileARM, false, isa.Inst{Op: isa.OpBLR, Ra: 4}, Taken, 0, 0x2000},
		{"ldw", machine.ProfileARM, false, isa.Inst{Op: isa.OpLDW, Rd: 3, Ra: 4, Imm: 3}, LoadOp, 0x2000, 0},
		{"ldb", machine.ProfileARM, false, isa.Inst{Op: isa.OpLDB, Rd: 3, Ra: 4, Imm: 3}, LoadOp, 0x2003, 0},
		{"ldt arm", machine.ProfileARM, false, isa.Inst{Op: isa.OpLDT, Rd: 3, Ra: 4}, LoadOp, 0x2000, 0},
		{"ldt x86", machine.ProfileX86, false, isa.Inst{Op: isa.OpLDT, Rd: 3, Ra: 4}, Undef, 0, 0},
		{"stx", machine.ProfileARM, false, isa.Inst{Op: isa.OpSTX, Rd: 3, Ra: 4, Rb: 1}, StoreExOp, 0x2000, 0},
		{"cprd", machine.ProfileARM, false, isa.Inst{Op: isa.OpCPRD, Rd: 3}, CoprocOp, 0, 0},
		{"halt user", machine.ProfileARM, true, isa.Inst{Op: isa.OpHALT}, Undef, 0, 0},
		{"eret user", machine.ProfileARM, true, isa.Inst{Op: isa.OpERET}, Undef, 0, 0},
		{"ud", machine.ProfileARM, false, isa.Inst{Op: isa.OpUD}, Undef, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(t, tc.profile)
			m.CPU.Kernel = !tc.user
			m.CPU.PC = pc
			m.CPU.Regs[1], m.CPU.Regs[2], m.CPU.Regs[4] = 2, 3, 0x2000
			var st engine.Stats
			v, k := Exec(m, tc.in, &st, pc)
			if k != tc.kind || v != tc.v {
				t.Fatalf("Exec = (%#x, %d), want (%#x, %d)", v, k, tc.v, tc.kind)
			}
			if tc.in.Op == isa.OpADD && m.CPU.Regs[3] != 5 {
				t.Errorf("add wrote r3 = %d, want 5", m.CPU.Regs[3])
			}
			want := uint32(pc)
			if tc.nextPC != 0 {
				want = tc.nextPC
			}
			if m.CPU.PC != want {
				t.Errorf("PC = %#x, want %#x", m.CPU.PC, want)
			}
			if k == Undef && st != (engine.Stats{}) {
				t.Errorf("an undefined op counted %+v", st)
			}
		})
	}
}

// TestExclusiveTails pins STX: a store without a reservation fails and
// leaves memory alone; after LDX it succeeds and breaks the
// reservation for the next STX.
func TestExclusiveTails(t *testing.T) {
	m := newMachine(t, machine.ProfileARM)
	var st engine.Stats
	in := isa.Inst{Op: isa.OpSTX, Rd: 3, Ra: 4, Rb: 1}
	m.CPU.Regs[1] = 0xAB
	const pa = 0x2000
	if out := StoreEx(m, in, &st, 0, pa, pa, RAM, isa.FaultNone); out != Done || m.CPU.Regs[3] != 1 {
		t.Fatalf("unreserved STX = %d, rd %d", out, m.CPU.Regs[3])
	}
	ld := isa.Inst{Op: isa.OpLDX, Rd: 5, Ra: 4}
	if out := LoadEx(m, ld, &st, 0, pa, pa, RAM, isa.FaultNone); out != Done {
		t.Fatal("LDX faulted")
	}
	if out := StoreEx(m, in, &st, 0, pa, pa, RAM, isa.FaultNone); out != StoredRAM || m.CPU.Regs[3] != 0 {
		t.Fatalf("reserved STX = %d, rd %d", out, m.CPU.Regs[3])
	}
	if got := m.Bus.ReadWordRAM(pa); got != 0xAB {
		t.Errorf("memory %#x", got)
	}
	if out := StoreEx(m, in, &st, 0, pa, pa, RAM, isa.FaultNone); out != Done {
		t.Error("second STX reused the consumed reservation")
	}
	if st.ExclusiveFails != 2 || st.MemWrites != 1 {
		t.Errorf("stats %+v", st)
	}
	if out := LoadEx(m, ld, &st, 0, pa, pa, Write|User, isa.FaultNone); out != Faulted || m.CPU.Ctrl[isa.CtrlFSR] != uint32(isa.FaultBus) {
		t.Errorf("LDX to a device = %d, FSR %#x; want a bus fault", out, m.CPU.Ctrl[isa.CtrlFSR])
	}
}

// TestDecodeCacheNoteStore pins SMC handling: a store to a page with
// cached decodes re-decodes the next fetch and counts one
// invalidation; a store elsewhere counts nothing.
func TestDecodeCacheNoteStore(t *testing.T) {
	m := newMachine(t, machine.ProfileARM)
	var st engine.Stats
	c := NewDecodeCache(m.Bus)
	m.Bus.WriteWordRAM(0x1004, isa.Encode(isa.Inst{Op: isa.OpNOP}))
	dp := c.Page(0x1004, &st)
	if c.Page(0x1000, &st) != dp || st.PagesDecoded != 1 {
		t.Fatalf("one page decoded twice: %+v", st)
	}
	if in := dp.Inst(Word(0x1004)); in.Op != isa.OpNOP {
		t.Fatalf("decoded %v", in.Op)
	}
	m.Bus.WriteWordRAM(0x1004, isa.Encode(isa.Inst{Op: isa.OpHALT}))
	c.NoteStore(0x3000, &st)
	c.NoteStore(0x1004, &st)
	if in := c.Inst(0x1004, &st); in.Op != isa.OpHALT {
		t.Errorf("stale decode %v after a store", in.Op)
	}
	if st.SMCInvalidations != 1 {
		t.Errorf("SMCInvalidations = %d, want 1", st.SMCInvalidations)
	}
}
