package ebpf

import (
	"strings"
	"testing"
)

// Additional verifier and interpreter edge cases beyond the core suite.

func TestVerifyBranchMergeLosesDivergentState(t *testing.T) {
	// R2 is a packet pointer on one path and a scalar on the other; after
	// the join it must be unusable as a pointer.
	p := NewProgram("merge",
		Ldx(SizeW, R2, R1, CtxData),    // r2 = pkt
		Ldx(SizeW, R3, R1, CtxDataEnd), // r3 = end
		Mov(R4, R2),
		AddImm(R4, 14),
		Jgt(R4, R3, 1),        // taken -> skip the next insn
		MovImm(R2, 1234),      // fall-through: r2 becomes a scalar
		Ldx(SizeB, R0, R2, 0), // join: load through r2 — must be rejected
		Exit(),
	)
	err := p.Load()
	if err == nil || !strings.Contains(err.Error(), "non-pointer") &&
		!strings.Contains(err.Error(), "uninitialized") {
		t.Fatalf("divergent-state load error = %v", err)
	}
}

func TestVerifyCheckedLenMergesToMinimum(t *testing.T) {
	// One path proves 34 bytes, the other only 14; after the merge a load
	// at offset 20 must be rejected.
	p := NewProgram("minmerge",
		Ldx(SizeW, R2, R1, CtxData),
		Ldx(SizeW, R3, R1, CtxDataEnd),
		Mov(R4, R2),
		AddImm(R4, 14),
		Jgt(R4, R3, 8), // not enough for even 14 -> drop (off to insn 13)
		Mov(R4, R2),
		AddImm(R4, 34),
		Jgt(R4, R3, 1), // if no 34 bytes, skip nothing extra (both paths join)
		MovImm(R5, 0),  // path with 34 bytes verified
		// join point: only 14 bytes are guaranteed here.
		Ldx(SizeW, R0, R2, 20),
		Exit(),
		MovImm(R0, 1),
		Exit(),
		MovImm(R0, 1), // drop:
		Exit(),
	)
	if err := p.Load(); err == nil {
		t.Fatal("load beyond merged checked length must be rejected")
	}
}

func TestVerifyJsetOnScalar(t *testing.T) {
	p := NewProgram("jset",
		Ldx(SizeW, R2, R1, CtxRxQueue),
		JsetImm(R2, 0x4, 1),
		MovImm(R0, 0),
		MovImm(R0, 1),
		Exit(),
	)
	if err := p.Load(); err != nil {
		t.Fatalf("jset program rejected: %v", err)
	}
}

func TestVerifyStackLoadBeforeStore(t *testing.T) {
	p := NewProgram("stackread",
		Ldx(SizeW, R0, R10, -8), // never written
		Exit(),
	)
	err := p.Load()
	if err == nil || !strings.Contains(err.Error(), "uninitialized stack") {
		t.Fatalf("stack read error = %v", err)
	}
}

func TestVerifyPartialStackInit(t *testing.T) {
	// Write 4 bytes, read 8: the upper half is uninitialized.
	p := NewProgram("partial",
		St(SizeW, R10, -8, 7),
		Ldx(SizeDW, R0, R10, -8),
		Exit(),
	)
	if err := p.Load(); err == nil {
		t.Fatal("partially initialized stack read must be rejected")
	}
}

func TestVerifyPointerStoreToStackRejected(t *testing.T) {
	p := NewProgram("spill",
		Ldx(SizeW, R2, R1, CtxData),
		Stx(SizeDW, R10, -8, R2), // spilling a pkt pointer
		MovImm(R0, 0),
		Exit(),
	)
	err := p.Load()
	if err == nil || !strings.Contains(err.Error(), "spill") {
		t.Fatalf("pointer spill error = %v", err)
	}
}

func TestVerifyMapValueBounds(t *testing.T) {
	m := NewHashMap(4, 8, 4)
	p := NewProgram("mvbounds",
		St(SizeW, R10, -4, 1),
		MovImm(R1, 1),
		Mov(R2, R10),
		AddImm(R2, -4),
		Call(HelperMapLookup),
		JeqImm(R0, 0, 2),
		Ldx(SizeDW, R3, R0, 8), // value is 8 bytes; offset 8 overruns
		Mov(R0, R3),
		Exit(),
	).AttachMap(1, m)
	err := p.Load()
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("map value bounds error = %v", err)
	}
}

func TestVerifyMapValueWriteInBounds(t *testing.T) {
	m := NewHashMap(4, 8, 4)
	p := NewProgram("mvwrite",
		St(SizeW, R10, -4, 1),
		MovImm(R1, 1),
		Mov(R2, R10),
		AddImm(R2, -4),
		Call(HelperMapLookup),
		JeqImm(R0, 0, 2),
		St(SizeDW, R0, 0, 99), // write within the 8-byte value
		Ja(0),
		MovImm(R0, 0),
		Exit(),
	).AttachMap(1, m)
	if err := p.Load(); err != nil {
		t.Fatalf("in-bounds map write rejected: %v", err)
	}
}

func TestVerifyComparePktEndReversed(t *testing.T) {
	// "if data_end > data+N goto ok" — the reversed form drivers emit.
	p := NewProgram("revcmp",
		Ldx(SizeW, R2, R1, CtxData),
		Ldx(SizeW, R3, R1, CtxDataEnd),
		Mov(R4, R2),
		AddImm(R4, 14),
		Jgt(R3, R4, 1), // end > data+14 -> 14 bytes available at target
		Ja(2),          // not enough: drop
		Ldx(SizeH, R0, R2, 12),
		Exit(),
		MovImm(R0, 1),
		Exit(),
	)
	if err := p.Load(); err != nil {
		t.Fatalf("reversed comparison rejected: %v", err)
	}
}

func TestVerifyCtxStoreRejected(t *testing.T) {
	p := NewProgram("ctxstore",
		St(SizeW, R1, 0, 7),
		MovImm(R0, 0),
		Exit(),
	)
	if err := p.Load(); err == nil {
		t.Fatal("store through ctx must be rejected")
	}
}

func TestVerifyHelperMissingKeyPointer(t *testing.T) {
	m := NewHashMap(4, 4, 4)
	p := NewProgram("badptr",
		MovImm(R1, 1),
		MovImm(R2, 1234), // scalar, not a pointer
		Call(HelperMapLookup),
		MovImm(R0, 0),
		Exit(),
	).AttachMap(1, m)
	err := p.Load()
	if err == nil || !strings.Contains(err.Error(), "key must point") {
		t.Fatalf("bad key pointer error = %v", err)
	}
}

func TestRunDivModByZeroRegisterYieldsZero(t *testing.T) {
	// Runtime division by a zero register returns 0, as eBPF defines.
	p := NewProgram("div",
		Ldx(SizeW, R2, R1, CtxRxQueue), // 0 at runtime
		MovImm(R0, 100),
		Insn{Op: OpDiv, Dst: R0, Src: R2},
		Exit(),
	)
	if err := p.Load(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(&Context{Packet: make([]byte, 64), RxQueue: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != 0 {
		t.Fatalf("div by zero = %d, want 0", res.Action)
	}
}

func TestRunALUCoverage(t *testing.T) {
	// Exercise the remaining ALU ops end to end.
	p := NewProgram("alu",
		MovImm(R0, 7),
		MulImm(R0, 3),  // 21
		OrImm(R0, 8),   // 29
		AndImm(R0, 28), // 28
		LshImm(R0, 2),  // 112
		RshImm(R0, 1),  // 56
		Insn{Op: OpMod, Dst: R0, Imm: 10, UseImm: true}, // 6
		Insn{Op: OpNeg, Dst: R0},                        // -6
		Insn{Op: OpNeg, Dst: R0},                        // 6
		MovImm(R2, 3),
		XorReg(R0, R2), // 5
		SubImm(R0, 1),  // 4
		Exit(),
	)
	if err := p.Load(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(&Context{Packet: make([]byte, 64)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != 4 {
		t.Fatalf("ALU chain = %d, want 4", res.Action)
	}
}

func TestRunMapDeleteAndUpdateHelpers(t *testing.T) {
	m := NewHashMap(4, 4, 8)
	p := NewProgram("upd",
		St(SizeW, R10, -4, 7),  // key
		St(SizeW, R10, -8, 42), // value
		MovImm(R1, 1),
		Mov(R2, R10),
		AddImm(R2, -4),
		Mov(R3, R10),
		AddImm(R3, -8),
		Call(HelperMapUpdate),
		Mov(R6, R0), // save rc
		// Now delete it.
		MovImm(R1, 1),
		Mov(R2, R10),
		AddImm(R2, -4),
		Call(HelperMapDelete),
		Mov(R0, R6),
		Exit(),
	).AttachMap(1, m)
	if err := p.Load(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(&Context{Packet: make([]byte, 64)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != 0 {
		t.Fatalf("update rc = %d", res.Action)
	}
	if m.Len() != 0 {
		t.Fatalf("map len = %d after delete", m.Len())
	}
	if res.OtherHelpers != 2 {
		t.Fatalf("helper count = %d", res.OtherHelpers)
	}
}

func TestVerifyEmptyJumpTargetBounds(t *testing.T) {
	p := NewProgram("oob", Ja(5), Exit())
	if err := p.Load(); err == nil {
		t.Fatal("jump past the end must be rejected")
	}
}

// updateWithValue builds "map_update(map 1, key = stack[-4], value = <r3>)"
// around the instructions that set r3, over a map with 4-byte keys and
// 8-byte values.
func updateWithValue(setR3 ...Insn) *Program {
	insns := []Insn{
		Ldx(SizeW, R6, R1, CtxData),
		Ldx(SizeW, R7, R1, CtxDataEnd),
		Mov(R8, R6),
		AddImm(R8, 14),
		Jgt(R8, R7, int16(len(setR3)+8)), // short frame: to the exit
		St(SizeW, R10, -4, 7),            // key
		St(SizeDW, R10, -16, 42),         // an initialised 8-byte slot
	}
	insns = append(insns, setR3...)
	insns = append(insns,
		MovImm(R1, 1),
		Mov(R2, R10),
		AddImm(R2, -4),
		Call(HelperMapUpdate),
		MovImm(R0, XDPPass),
		Exit(),
		MovImm(R0, XDPDrop),
		Exit(),
	)
	return NewProgram("update-value", insns...).AttachMap(1, NewHashMap(4, 8, 8)).AttachMap(2, NewArrayMap(8, 4))
}

// lookupInto loads a null-checked pointer to map 2's 8-byte value 0 into r3,
// offset by off.
func lookupInto(off int64) []Insn {
	return []Insn{
		MovImm(R1, 2),
		Mov(R2, R10),
		AddImm(R2, -16),
		St(SizeW, R10, -16, 0), // key 0
		Call(HelperMapLookup),
		JneImm(R0, 0, 2),
		MovImm(R0, XDPDrop),
		Exit(),
		Mov(R3, R0),
		AddImm(R3, off),
	}
}

func TestVerifyChecksMapUpdateValue(t *testing.T) {
	for _, tc := range []struct {
		name   string
		setR3  []Insn
		reject string
	}{
		{"stack value in bounds", []Insn{Mov(R3, R10), AddImm(R3, -16)}, ""},
		{"stack value runs past the frame", []Insn{Mov(R3, R10), AddImm(R3, -4)}, "out of stack bounds"},
		{"stack value never written", []Insn{Mov(R3, R10), AddImm(R3, -32)}, "uninitialized stack byte"},
		{"packet value in bounds", []Insn{Mov(R3, R6), AddImm(R3, 6)}, ""},
		{"packet value beyond the checked length", []Insn{Mov(R3, R6), AddImm(R3, 8)}, "exceeds verified bounds"},
		{"map value in bounds", lookupInto(0), ""},
		{"map value runs past the source value", lookupInto(4), "out of bounds"},
		{"scalar value", []Insn{MovImm(R3, 0)}, "must point to"},
	} {
		p := updateWithValue(tc.setR3...)
		err := p.Load()
		if tc.reject == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
				continue
			}
			// What the verifier accepts runs without a fault.
			res, err := p.Run(&Context{Packet: make([]byte, 64)})
			if err != nil || res.Action != XDPPass || p.mapByID(1).Len() != 1 {
				t.Errorf("%s: run: res=%+v err=%v entries=%d", tc.name, res, err, p.mapByID(1).Len())
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.reject) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.reject)
		}
	}
}

// TestVerifyRejectsMalformedInstructions: fields no assembler constructor
// produces must not reach the executor (or index the verifier's own state).
func TestVerifyRejectsMalformedInstructions(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   Insn
	}{
		{"register past r10", Insn{Op: OpMov, Dst: 11, Imm: 1, UseImm: true}},
		{"source register past r10", Insn{Op: OpMov, Dst: R2, Src: 200}},
		{"three-byte load", Insn{Op: OpLdx, Dst: R2, Src: R10, Off: -8, Size: 3}},
		{"zero-byte store", Insn{Op: OpSt, Dst: R10, Off: -8}},
		{"pointer offset out of range", AddImm(R3, 1<<40)},
	} {
		p := NewProgram(tc.name, St(SizeDW, R10, -8, 0), Mov(R3, R10), tc.in, MovImm(R0, 0), Exit())
		if err := p.Load(); err == nil {
			t.Errorf("%s: must be rejected", tc.name)
		}
	}
}

// TestAttachMapUnloads: maps are bound to call sites at Load, so a program
// whose map table changed must pass the verifier again before it runs.
func TestAttachMapUnloads(t *testing.T) {
	p := progDrop()
	if err := p.Load(); err != nil {
		t.Fatal(err)
	}
	p.AttachMap(1, NewHashMap(4, 4, 4))
	if _, err := p.Run(&Context{}); err == nil || p.Verified() {
		t.Fatal("a program must be reloaded after AttachMap")
	}
}
