package ebpf

// Load lowers a verified program once, as the kernel does after its verifier
// accepts one. The verifier's abstract state at each instruction already
// proves which memory region every load and store addresses — context
// field, packet, stack or map value — and, for packet and stack, the exact
// constant offset (states that disagree on a pointer's kind or offset merge
// to "uninitialized", and using that as a base is rejected). compile folds
// those facts into a dense array of pre-decoded ops, so the executor never
// classifies an address it could have known at load time.
//
// What stays a run-time check: a packet access against len(ctx.Packet) (the
// verifier proved it against data_end on the program's own path, the
// executor re-checks it against the frame actually presented), map-value
// accesses and helper pointer arguments (resolved from the register's
// address on every use), an out-of-range pc, and the loaded flag.

// op is one pre-decoded instruction; ops correspond one to one with Insns,
// so an ErrRuntime's PC names the source instruction.
type op struct {
	// code is the Insn's Op for ALU, jump, call and exit instructions and
	// one of the region-specific codes below for loads and stores.
	code Op
	dst  uint8
	// src is the register holding the second operand (for a store, the
	// value): regImm when that operand is the immediate.
	src  uint8
	size uint8
	// arg is the absolute target of a jump, the offset within the region
	// of a packet or stack access, the offset from the base register of a
	// map-value access, or the index of a call's callSite.
	arg int32
	imm uint64
}

// regImm is the register-file slot Exec loads each op's immediate into, so
// register and immediate operand forms share one op.
const regImm = 15

// Compiled load/store codes: the region is part of the opcode. The four
// context loads are in struct xdp_md field order.
const (
	opLdCtxData Op = OpExit + 1 + iota
	opLdCtxDataEnd
	opLdCtxIngressIface
	opLdCtxRxQueue
	opLdPkt
	opLdStack
	opLdMap
	opStPkt
	opStStack
	opStMap
	opDead // no path reaches the instruction
)

// callSite is a helper call with its map argument bound: the verifier
// requires r1 to be a known constant at every map helper call.
type callSite struct {
	helper Helper
	m      Map
	target *TargetMap // m, when it is a redirect target map
}

// compile fills p.code, p.calls and p.stackLo from the verifier's
// per-instruction states.
func (p *Program) compile(states []absState) {
	code := make([]op, len(p.Insns))
	p.calls = nil
	p.stackLo = StackSize
	for pc, in := range p.Insns {
		st := &states[pc]
		o := op{code: in.Op, dst: uint8(in.Dst), src: uint8(in.Src), size: uint8(in.Size), imm: uint64(in.Imm)}
		switch {
		case !st.live:
			o.code = opDead
		case in.Op == OpLdx:
			if st.regs[in.Src].kind == kindCtx {
				o.code = opLdCtxData + Op(in.Off/4)
			} else {
				o.code, o.arg = memOp(opLdPkt, st.regs[in.Src], in.Off)
			}
		case in.Op == OpStx || in.Op == OpSt:
			if in.Op == OpSt {
				o.src = regImm
			}
			o.code, o.arg = memOp(opStPkt, st.regs[in.Dst], in.Off)
			if o.code == opStStack && int(o.arg) < p.stackLo {
				p.stackLo = int(o.arg)
			}
		case in.Op == OpCall:
			cs := callSite{helper: Helper(in.Imm)}
			if cs.helper != HelperCsumReplace {
				cs.m = p.maps[st.regs[R1].val]
				cs.target, _ = cs.m.(*TargetMap)
			}
			o.arg = int32(len(p.calls))
			p.calls = append(p.calls, cs)
		default: // ALU, jumps, exit
			if in.UseImm {
				o.src = regImm
			}
			if in.Op >= OpJa && in.Op <= OpJset {
				o.arg = int32(pc + 1 + int(in.Off))
			}
		}
		code[pc] = o
	}
	p.code = code
}

// memOp returns the compiled code and offset of an access through base.
// pkt is opLdPkt or opStPkt; the stack and map-value codes follow it.
func memOp(pkt Op, base regState, off int16) (Op, int32) {
	switch base.kind {
	case kindPktPtr:
		return pkt, int32(base.off) + int32(off)
	case kindStackPtr:
		return pkt + 1, StackSize + int32(base.off) + int32(off)
	default: // kindMapValue: the register carries the value's address
		return pkt + 2, int32(off)
	}
}
