package ebpf

// Assembler helpers for opcodes that no shipped program uses. The VM and the
// verifier implement every opcode; these tests write programs with them.

// Add sets dst += src.
func Add(dst, src Reg) Insn { return Insn{Op: OpAdd, Dst: dst, Src: src} }

// SubImm sets dst -= imm.
func SubImm(dst Reg, imm int64) Insn { return Insn{Op: OpSub, Dst: dst, Imm: imm, UseImm: true} }

// MulImm sets dst *= imm.
func MulImm(dst Reg, imm int64) Insn { return Insn{Op: OpMul, Dst: dst, Imm: imm, UseImm: true} }

// OrImm sets dst |= imm.
func OrImm(dst Reg, imm int64) Insn { return Insn{Op: OpOr, Dst: dst, Imm: imm, UseImm: true} }

// XorReg sets dst ^= src.
func XorReg(dst, src Reg) Insn { return Insn{Op: OpXor, Dst: dst, Src: src} }

// LshImm sets dst <<= imm.
func LshImm(dst Reg, imm int64) Insn { return Insn{Op: OpLsh, Dst: dst, Imm: imm, UseImm: true} }

// RshImm sets dst >>= imm (logical).
func RshImm(dst Reg, imm int64) Insn { return Insn{Op: OpRsh, Dst: dst, Imm: imm, UseImm: true} }

// Jle jumps if dst <= src (unsigned).
func Jle(dst, src Reg, off int16) Insn { return Insn{Op: OpJle, Dst: dst, Src: src, Off: off} }

// JsetImm jumps if dst & imm != 0.
func JsetImm(dst Reg, imm int64, off int16) Insn {
	return Insn{Op: OpJset, Dst: dst, Imm: imm, Off: off, UseImm: true}
}
