// Package ebpf implements a register-machine virtual machine modeled on
// Linux eBPF: eleven registers, a 512-byte stack, hash/array/device maps,
// helper calls, and — centrally for this paper — a verifier that enforces
// the sandbox restrictions Section 2.2.2 discusses: bounded program size,
// no loops, initialized registers, bounds-checked packet access, and
// null-checked map values.
//
// Programs are built with the assembler constructors in this file (the
// moral equivalent of the Clang/LLVM step in the paper's Figure 4), pass
// through Load (the in-kernel verifier step, then a one-time lowering of
// the accepted program as the kernel's JIT does), and execute attached to
// an XDP hook (package xdp). Execution cost is metered per instruction
// and per helper so the simulation can charge realistic XDP processing
// costs (Table 5).
package ebpf

import "fmt"

// Reg is a VM register.
type Reg uint8

// The eBPF register file. R0 holds return values, R1-R5 are caller-saved
// helper arguments, R6-R9 are callee-saved, R10 is the read-only frame
// pointer.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	NumRegs
)

// Op is an instruction opcode.
type Op uint8

// Opcodes. ALU operations come in register and immediate forms selected by
// Insn.UseImm.
const (
	_ Op = iota // zero is no instruction: a zero Insn never verifies
	// ALU64.
	OpMov
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpLsh
	OpRsh
	OpNeg
	// Memory. Size selects width.
	OpLdx // dst = *(src + off)
	OpStx // *(dst + off) = src
	OpSt  // *(dst + off) = imm
	// Jumps. Off is the relative target (pc += off + 1 semantics are NOT
	// used; Off is relative to the next instruction, i.e. Off=0 falls
	// through).
	OpJa
	OpJeq
	OpJne
	OpJgt
	OpJge
	OpJlt
	OpJle
	OpJset
	// Control.
	OpCall
	OpExit
)

var opNames = [...]string{
	OpMov: "mov", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpMod: "mod", OpAnd: "and", OpOr: "or", OpXor: "xor", OpLsh: "lsh",
	OpRsh: "rsh", OpNeg: "neg", OpLdx: "ldx", OpStx: "stx", OpSt: "st",
	OpJa: "ja", OpJeq: "jeq", OpJne: "jne", OpJgt: "jgt", OpJge: "jge",
	OpJlt: "jlt", OpJle: "jle", OpJset: "jset", OpCall: "call", OpExit: "exit",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Size is a memory access width.
type Size uint8

// Access widths.
const (
	SizeB  Size = 1
	SizeH  Size = 2
	SizeW  Size = 4
	SizeDW Size = 8
)

// Insn is one instruction. Fields are interpreted per opcode; see the
// assembler constructors for the valid combinations.
type Insn struct {
	Op     Op
	Dst    Reg
	Src    Reg
	Off    int16
	Imm    int64
	Size   Size
	UseImm bool
}

// String disassembles the instruction.
func (i Insn) String() string {
	switch i.Op {
	case OpExit:
		return "exit"
	case OpCall:
		return fmt.Sprintf("call %s", Helper(i.Imm))
	case OpJa:
		return fmt.Sprintf("ja +%d", i.Off)
	case OpJeq, OpJne, OpJgt, OpJge, OpJlt, OpJle, OpJset:
		if i.UseImm {
			return fmt.Sprintf("%s r%d, %d, +%d", i.Op, i.Dst, i.Imm, i.Off)
		}
		return fmt.Sprintf("%s r%d, r%d, +%d", i.Op, i.Dst, i.Src, i.Off)
	case OpLdx:
		return fmt.Sprintf("ldx%s r%d, [r%d%+d]", sizeSuffix(i.Size), i.Dst, i.Src, i.Off)
	case OpStx:
		return fmt.Sprintf("stx%s [r%d%+d], r%d", sizeSuffix(i.Size), i.Dst, i.Off, i.Src)
	case OpSt:
		return fmt.Sprintf("st%s [r%d%+d], %d", sizeSuffix(i.Size), i.Dst, i.Off, i.Imm)
	case OpNeg:
		return fmt.Sprintf("neg r%d", i.Dst)
	default:
		if i.UseImm {
			return fmt.Sprintf("%s r%d, %d", i.Op, i.Dst, i.Imm)
		}
		return fmt.Sprintf("%s r%d, r%d", i.Op, i.Dst, i.Src)
	}
}

func sizeSuffix(s Size) string {
	switch s {
	case SizeB:
		return "b"
	case SizeH:
		return "h"
	case SizeW:
		return "w"
	default:
		return "dw"
	}
}

// Helper identifies a callable VM helper function (the bpf_* kernel
// helpers).
type Helper int64

// Helper identifiers.
const (
	HelperMapLookup   Helper = 1  // r1=map id, r2=key ptr -> r0=value ptr or 0
	HelperMapUpdate   Helper = 2  // r1=map id, r2=key ptr, r3=value ptr -> r0=0/err
	HelperMapDelete   Helper = 3  // r1=map id, r2=key ptr -> r0=0/err
	HelperRedirectMap Helper = 51 // r1=map id, r2=index, r3=flags -> r0=XDP action
	HelperCsumReplace Helper = 10 // modeled checksum fixup; r0=0
)

// String names the helper.
func (h Helper) String() string {
	switch h {
	case HelperMapLookup:
		return "map_lookup_elem"
	case HelperMapUpdate:
		return "map_update_elem"
	case HelperMapDelete:
		return "map_delete_elem"
	case HelperRedirectMap:
		return "redirect_map"
	case HelperCsumReplace:
		return "l3_csum_replace"
	default:
		return fmt.Sprintf("helper(%d)", int64(h))
	}
}

// XDP context field offsets, for loads through the context register (R1 at
// entry). Mirrors struct xdp_md.
const (
	CtxData         = 0  // 32-bit: packet data start
	CtxDataEnd      = 4  // 32-bit: packet data end
	CtxIngressIface = 8  // 32-bit: ingress ifindex
	CtxRxQueue      = 12 // 32-bit: receive queue index
)

// XDP program return codes (enum xdp_action).
const (
	XDPAborted  = 0
	XDPDrop     = 1
	XDPPass     = 2
	XDPTx       = 3
	XDPRedirect = 4
)

// --- Assembler constructors -------------------------------------------------

// Mov sets dst = src.
func Mov(dst, src Reg) Insn { return Insn{Op: OpMov, Dst: dst, Src: src} }

// MovImm sets dst = imm.
func MovImm(dst Reg, imm int64) Insn { return Insn{Op: OpMov, Dst: dst, Imm: imm, UseImm: true} }

// Add sets dst += src.
func Add(dst, src Reg) Insn { return Insn{Op: OpAdd, Dst: dst, Src: src} }

// AddImm sets dst += imm.
func AddImm(dst Reg, imm int64) Insn { return Insn{Op: OpAdd, Dst: dst, Imm: imm, UseImm: true} }

// SubImm sets dst -= imm.
func SubImm(dst Reg, imm int64) Insn { return Insn{Op: OpSub, Dst: dst, Imm: imm, UseImm: true} }

// MulImm sets dst *= imm.
func MulImm(dst Reg, imm int64) Insn { return Insn{Op: OpMul, Dst: dst, Imm: imm, UseImm: true} }

// AndImm sets dst &= imm.
func AndImm(dst Reg, imm int64) Insn { return Insn{Op: OpAnd, Dst: dst, Imm: imm, UseImm: true} }

// OrImm sets dst |= imm.
func OrImm(dst Reg, imm int64) Insn { return Insn{Op: OpOr, Dst: dst, Imm: imm, UseImm: true} }

// XorReg sets dst ^= src.
func XorReg(dst, src Reg) Insn { return Insn{Op: OpXor, Dst: dst, Src: src} }

// LshImm sets dst <<= imm.
func LshImm(dst Reg, imm int64) Insn { return Insn{Op: OpLsh, Dst: dst, Imm: imm, UseImm: true} }

// RshImm sets dst >>= imm (logical).
func RshImm(dst Reg, imm int64) Insn { return Insn{Op: OpRsh, Dst: dst, Imm: imm, UseImm: true} }

// Ldx loads size bytes at src+off into dst (zero-extended, big-endian for
// packet data to match network byte order semantics used by the programs).
func Ldx(size Size, dst, src Reg, off int16) Insn {
	return Insn{Op: OpLdx, Size: size, Dst: dst, Src: src, Off: off}
}

// Stx stores size bytes of src at dst+off.
func Stx(size Size, dst Reg, off int16, src Reg) Insn {
	return Insn{Op: OpStx, Size: size, Dst: dst, Src: src, Off: off}
}

// St stores an immediate at dst+off.
func St(size Size, dst Reg, off int16, imm int64) Insn {
	return Insn{Op: OpSt, Size: size, Dst: dst, Off: off, Imm: imm, UseImm: true}
}

// Ja jumps unconditionally; off is relative to the next instruction.
func Ja(off int16) Insn { return Insn{Op: OpJa, Off: off} }

// JeqImm jumps if dst == imm.
func JeqImm(dst Reg, imm int64, off int16) Insn {
	return Insn{Op: OpJeq, Dst: dst, Imm: imm, Off: off, UseImm: true}
}

// JneImm jumps if dst != imm.
func JneImm(dst Reg, imm int64, off int16) Insn {
	return Insn{Op: OpJne, Dst: dst, Imm: imm, Off: off, UseImm: true}
}

// Jgt jumps if dst > src (unsigned).
func Jgt(dst, src Reg, off int16) Insn { return Insn{Op: OpJgt, Dst: dst, Src: src, Off: off} }

// Jle jumps if dst <= src (unsigned).
func Jle(dst, src Reg, off int16) Insn { return Insn{Op: OpJle, Dst: dst, Src: src, Off: off} }

// JsetImm jumps if dst & imm != 0.
func JsetImm(dst Reg, imm int64, off int16) Insn {
	return Insn{Op: OpJset, Dst: dst, Imm: imm, Off: off, UseImm: true}
}

// Call invokes a helper.
func Call(h Helper) Insn { return Insn{Op: OpCall, Imm: int64(h), UseImm: true} }

// Exit returns from the program with R0 as the result.
func Exit() Insn { return Insn{Op: OpExit} }
