package ebpf

import (
	"errors"
	"fmt"
)

// MaxInsns is the program size limit the verifier enforces ("the sandbox
// limits the size of an eBPF program", Section 2.2.2).
const MaxInsns = 4096

// StackSize is the per-program stack, as in the kernel.
const StackSize = 512

// maxPtrOff bounds the constant offset a pointer may accumulate (the
// kernel's BPF_MAX_VAR_OFF), so compiled offsets fit their field.
const maxPtrOff = 1 << 29

// VerifierError describes a program rejection with the offending
// instruction index.
type VerifierError struct {
	PC     int
	Reason string
}

func (e *VerifierError) Error() string {
	return fmt.Sprintf("ebpf: verifier rejected program at insn %d: %s", e.PC, e.Reason)
}

// ErrNoExit is returned when control can fall off the end of the program.
var ErrNoExit = errors.New("ebpf: verifier: control may fall off the end of the program")

// regKind is the abstract type of a register during verification.
type regKind uint8

const (
	kindUninit regKind = iota
	kindScalar
	kindCtx
	kindPktPtr
	kindPktEnd
	kindStackPtr
	kindMapValueOrNull
	kindMapValue
)

func (k regKind) String() string {
	switch k {
	case kindUninit:
		return "uninitialized"
	case kindScalar:
		return "scalar"
	case kindCtx:
		return "ctx"
	case kindPktPtr:
		return "pkt"
	case kindPktEnd:
		return "pkt_end"
	case kindStackPtr:
		return "stack"
	case kindMapValueOrNull:
		return "map_value_or_null"
	case kindMapValue:
		return "map_value"
	default:
		return "?"
	}
}

// regState is the abstract value of one register.
type regState struct {
	kind  regKind
	off   int64 // pktPtr / stackPtr offset
	known bool  // scalar with compile-time-known value
	val   int64 // the known scalar value
	mapID int64 // map whose value this points into
}

// absState is the abstract machine state at one program point.
type absState struct {
	regs       [NumRegs]regState
	checkedLen int64 // packet bytes proven available
	stackInit  [StackSize]bool
	live       bool
}

func entryState() absState {
	var s absState
	s.live = true
	s.regs[R1] = regState{kind: kindCtx}
	s.regs[R10] = regState{kind: kindStackPtr, off: 0}
	return s
}

// merge folds o into s at a join point, keeping only facts true on both
// paths.
func (s *absState) merge(o *absState) {
	if !s.live {
		*s = *o
		return
	}
	for i := range s.regs {
		a, b := s.regs[i], o.regs[i]
		if a.kind != b.kind || a.off != b.off || a.mapID != b.mapID {
			s.regs[i] = regState{kind: kindUninit}
			continue
		}
		if a.known && (!b.known || a.val != b.val) {
			a.known = false
		}
		s.regs[i] = a
	}
	if o.checkedLen < s.checkedLen {
		s.checkedLen = o.checkedLen
	}
	for i := range s.stackInit {
		s.stackInit[i] = s.stackInit[i] && o.stackInit[i]
	}
}

// verify checks prog against the sandbox rules. The rules enforced are the
// ones the paper calls out: program size cap, loop prohibition (forward
// jumps only), initialized registers, bounds-checked packet access against
// data_end, null-checked map values, and in-bounds stack and map-value
// access. For a program that is safe to run it returns the abstract state
// on entry to each instruction, which is what Load compiles from.
func verify(prog *Program) ([]absState, error) {
	insns := prog.Insns
	if len(insns) == 0 {
		return nil, &VerifierError{0, "empty program"}
	}
	if len(insns) > MaxInsns {
		return nil, &VerifierError{0, fmt.Sprintf("program too large: %d insns > %d", len(insns), MaxInsns)}
	}

	states := make([]absState, len(insns)+1)
	states[0] = entryState()

	for pc := 0; pc < len(insns); pc++ {
		st := states[pc]
		if !st.live {
			continue // unreachable
		}
		in := insns[pc]
		next, jumped, err := step(prog, &st, pc, in)
		if err != nil {
			return nil, err
		}
		// Propagate fall-through state.
		if next != nil {
			if pc+1 >= len(insns) {
				if in.Op != OpExit && in.Op != OpJa {
					return nil, ErrNoExit
				}
			} else {
				mergeInto(&states[pc+1], next)
			}
		}
		// Propagate jump-taken state.
		if jumped != nil {
			target := pc + 1 + int(in.Off)
			if target <= pc {
				return nil, &VerifierError{pc, "back-edge detected: loops are forbidden"}
			}
			if target >= len(insns) {
				return nil, &VerifierError{pc, fmt.Sprintf("jump target %d out of range", target)}
			}
			mergeInto(&states[target], jumped)
		}
	}
	// Check that the final instruction cannot fall through.
	last := insns[len(insns)-1]
	if states[len(insns)-1].live && last.Op != OpExit && last.Op != OpJa {
		return nil, ErrNoExit
	}
	return states, nil
}

func mergeInto(dst, src *absState) {
	if !dst.live {
		*dst = *src
		dst.live = true
		return
	}
	dst.merge(src)
}

// step abstractly executes one instruction. It returns the fall-through
// state (nil if control never falls through) and the jump-taken state (nil
// for non-jumps).
func step(prog *Program, st *absState, pc int, in Insn) (fall, jump *absState, err error) {
	bad := func(format string, args ...any) (*absState, *absState, error) {
		return nil, nil, &VerifierError{pc, fmt.Sprintf(format, args...)}
	}
	readable := func(r Reg) bool { return st.regs[r].kind != kindUninit }
	if in.Dst >= NumRegs || in.Src >= NumRegs {
		return bad("invalid register")
	}
	if in.Op == OpLdx || in.Op == OpStx || in.Op == OpSt {
		switch in.Size {
		case SizeB, SizeH, SizeW, SizeDW:
		default:
			return bad("invalid access size %d", in.Size)
		}
	}

	switch in.Op {
	case OpMov, OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpLsh, OpRsh, OpNeg:
		if in.Dst == R10 {
			return bad("write to frame pointer r10")
		}
		if !in.UseImm && in.Op != OpNeg && !readable(in.Src) {
			return bad("read of uninitialized register r%d", in.Src)
		}
		out := *st
		if err := stepALU(&out, pc, in); err != nil {
			return nil, nil, err
		}
		return &out, nil, nil

	case OpLdx:
		if in.Dst == R10 {
			return bad("write to frame pointer r10")
		}
		src := st.regs[in.Src]
		out := *st
		switch src.kind {
		case kindCtx:
			if in.Size != SizeW {
				return bad("ctx load must be 32-bit")
			}
			switch int64(in.Off) {
			case CtxData:
				out.regs[in.Dst] = regState{kind: kindPktPtr, off: 0}
			case CtxDataEnd:
				out.regs[in.Dst] = regState{kind: kindPktEnd}
			case CtxIngressIface, CtxRxQueue:
				out.regs[in.Dst] = regState{kind: kindScalar}
			default:
				return bad("invalid ctx offset %d", in.Off)
			}
		case kindPktPtr:
			start := src.off + int64(in.Off)
			end := start + int64(in.Size)
			if start < 0 {
				return bad("negative packet offset %d", start)
			}
			if end > st.checkedLen {
				return bad("packet load of bytes [%d,%d) exceeds verified length %d: add a data_end check", start, end, st.checkedLen)
			}
			out.regs[in.Dst] = regState{kind: kindScalar}
		case kindStackPtr:
			start := src.off + int64(in.Off)
			if start < -StackSize || start+int64(in.Size) > 0 {
				return bad("stack load out of bounds at offset %d", start)
			}
			for i := start; i < start+int64(in.Size); i++ {
				if !st.stackInit[-i-1] {
					return bad("read of uninitialized stack byte at offset %d", i)
				}
			}
			out.regs[in.Dst] = regState{kind: kindScalar}
		case kindMapValue:
			m := prog.mapByID(src.mapID)
			if m == nil {
				return bad("load through unknown map value")
			}
			start := src.off + int64(in.Off)
			if start < 0 || start+int64(in.Size) > int64(m.ValueSize()) {
				return bad("map value load out of bounds: offset %d size %d value %d", start, in.Size, m.ValueSize())
			}
			out.regs[in.Dst] = regState{kind: kindScalar}
		case kindMapValueOrNull:
			return bad("map value must be null-checked before use")
		default:
			return bad("load through non-pointer register r%d (%s)", in.Src, src.kind)
		}
		return &out, nil, nil

	case OpStx, OpSt:
		dst := st.regs[in.Dst]
		if in.Op == OpStx {
			src := st.regs[in.Src]
			if src.kind == kindUninit {
				return bad("store of uninitialized register r%d", in.Src)
			}
			if src.kind != kindScalar {
				return bad("pointer spill is not supported (storing %s)", src.kind)
			}
		}
		out := *st
		switch dst.kind {
		case kindPktPtr:
			start := dst.off + int64(in.Off)
			if start < 0 || start+int64(in.Size) > st.checkedLen {
				return bad("packet store out of verified bounds at offset %d", start)
			}
		case kindStackPtr:
			start := dst.off + int64(in.Off)
			if start < -StackSize || start+int64(in.Size) > 0 {
				return bad("stack store out of bounds at offset %d", start)
			}
			for i := start; i < start+int64(in.Size); i++ {
				out.stackInit[-i-1] = true
			}
		case kindMapValue:
			m := prog.mapByID(dst.mapID)
			if m == nil {
				return bad("store through unknown map value")
			}
			start := dst.off + int64(in.Off)
			if start < 0 || start+int64(in.Size) > int64(m.ValueSize()) {
				return bad("map value store out of bounds")
			}
		case kindMapValueOrNull:
			return bad("map value must be null-checked before use")
		default:
			return bad("store through non-pointer register r%d (%s)", in.Dst, dst.kind)
		}
		return &out, nil, nil

	case OpJa:
		out := *st
		return nil, &out, nil

	case OpJeq, OpJne, OpJgt, OpJge, OpJlt, OpJle, OpJset:
		if !readable(in.Dst) {
			return bad("jump on uninitialized register r%d", in.Dst)
		}
		if !in.UseImm && !readable(in.Src) {
			return bad("jump on uninitialized register r%d", in.Src)
		}
		fallSt, jumpSt := *st, *st
		if err := refineBranch(prog, &fallSt, &jumpSt, pc, in, st); err != nil {
			return nil, nil, err
		}
		return &fallSt, &jumpSt, nil

	case OpCall:
		out := *st
		if err := checkCall(prog, st, &out, pc, Helper(in.Imm)); err != nil {
			return nil, nil, err
		}
		return &out, nil, nil

	case OpExit:
		if !readable(R0) {
			return bad("exit with uninitialized r0")
		}
		return nil, nil, nil

	default:
		return bad("unknown opcode %d", in.Op)
	}
}

func stepALU(st *absState, pc int, in Insn) error {
	bad := func(format string, args ...any) error {
		return &VerifierError{pc, fmt.Sprintf(format, args...)}
	}
	dst := &st.regs[in.Dst]
	var src regState
	if in.UseImm {
		src = regState{kind: kindScalar, known: true, val: in.Imm}
	} else if in.Op != OpNeg {
		src = st.regs[in.Src]
	}

	switch in.Op {
	case OpMov:
		*dst = src
		return nil
	case OpAdd, OpSub:
		// Pointer arithmetic: pktPtr/stackPtr ± known scalar.
		if dst.kind == kindPktPtr || dst.kind == kindStackPtr || dst.kind == kindMapValue {
			if src.kind != kindScalar || !src.known {
				return bad("pointer arithmetic requires a constant (variable packet offsets are rejected)")
			}
			if in.Op == OpAdd {
				dst.off += src.val
			} else {
				dst.off -= src.val
			}
			if src.val < -maxPtrOff || src.val > maxPtrOff || dst.off < -maxPtrOff || dst.off > maxPtrOff {
				return bad("pointer offset %d out of range", dst.off)
			}
			return nil
		}
		if dst.kind != kindScalar {
			return bad("arithmetic on %s register", dst.kind)
		}
		if src.kind != kindScalar {
			return bad("arithmetic with %s operand", src.kind)
		}
		if dst.known && src.known {
			if in.Op == OpAdd {
				dst.val += src.val
			} else {
				dst.val -= src.val
			}
		} else {
			dst.known = false
		}
		return nil
	case OpNeg:
		if dst.kind != kindScalar {
			return bad("neg on %s register", dst.kind)
		}
		if dst.known {
			dst.val = -dst.val
		}
		return nil
	default: // mul/div/mod/and/or/xor/lsh/rsh
		if dst.kind != kindScalar || src.kind != kindScalar {
			return bad("%s requires scalar operands", in.Op)
		}
		if (in.Op == OpDiv || in.Op == OpMod) && in.UseImm && in.Imm == 0 {
			return bad("division by zero immediate")
		}
		if dst.known && src.known {
			switch in.Op {
			case OpMul:
				dst.val *= src.val
			case OpDiv:
				if src.val == 0 {
					dst.known = false
				} else {
					dst.val = int64(uint64(dst.val) / uint64(src.val))
				}
			case OpMod:
				if src.val == 0 {
					dst.known = false
				} else {
					dst.val = int64(uint64(dst.val) % uint64(src.val))
				}
			case OpAnd:
				dst.val &= src.val
			case OpOr:
				dst.val |= src.val
			case OpXor:
				dst.val ^= src.val
			case OpLsh:
				dst.val <<= uint64(src.val) & 63
			case OpRsh:
				dst.val = int64(uint64(dst.val) >> (uint64(src.val) & 63))
			}
		} else {
			dst.known = false
		}
		return nil
	}
}

// refineBranch applies branch-condition knowledge to the two successor
// states: packet bounds checks against pkt_end, and map-value null checks.
func refineBranch(prog *Program, fallSt, jumpSt *absState, pc int, in Insn, st *absState) error {
	d := st.regs[in.Dst]

	// Packet bounds pattern: comparison between pkt ptr and pkt_end.
	if !in.UseImm {
		s := st.regs[in.Src]
		if d.kind == kindPktPtr && s.kind == kindPktEnd {
			switch in.Op {
			case OpJgt: // if pkt+N > end goto: fall-through has N bytes
				if d.off > fallSt.checkedLen {
					fallSt.checkedLen = d.off
				}
			case OpJge: // if pkt+N >= end goto: fall-through has N bytes
				if d.off > fallSt.checkedLen {
					fallSt.checkedLen = d.off
				}
			case OpJle: // if pkt+N <= end goto: jump-taken has N bytes
				if d.off > jumpSt.checkedLen {
					jumpSt.checkedLen = d.off
				}
			case OpJlt:
				if d.off > jumpSt.checkedLen {
					jumpSt.checkedLen = d.off
				}
			}
			return nil
		}
		if d.kind == kindPktEnd && s.kind == kindPktPtr {
			switch in.Op {
			case OpJlt, OpJle: // if end < pkt+N goto: fall-through has N bytes
				if s.off > fallSt.checkedLen {
					fallSt.checkedLen = s.off
				}
			case OpJgt, OpJge: // if end > pkt+N goto: jump-taken has N bytes
				if s.off > jumpSt.checkedLen {
					jumpSt.checkedLen = s.off
				}
			}
			return nil
		}
		// Other pointer comparisons: both scalars required.
		if d.kind != kindScalar || s.kind != kindScalar {
			return &VerifierError{pc, fmt.Sprintf("comparison between %s and %s", d.kind, s.kind)}
		}
		return nil
	}

	// Null-check pattern on map values.
	if d.kind == kindMapValueOrNull && in.Imm == 0 {
		switch in.Op {
		case OpJeq: // if v == 0 goto: fall-through is non-null
			fallSt.regs[in.Dst].kind = kindMapValue
			jumpSt.regs[in.Dst] = regState{kind: kindScalar, known: true, val: 0}
		case OpJne: // if v != 0 goto: jump-taken is non-null
			jumpSt.regs[in.Dst].kind = kindMapValue
			fallSt.regs[in.Dst] = regState{kind: kindScalar, known: true, val: 0}
		}
		return nil
	}
	if d.kind != kindScalar {
		return &VerifierError{pc, fmt.Sprintf("immediate comparison on %s register", d.kind)}
	}
	return nil
}

// checkCall validates helper arguments and applies the calling convention:
// R0 receives the result, R1-R5 are clobbered.
func checkCall(prog *Program, st *absState, out *absState, pc int, h Helper) error {
	bad := func(format string, args ...any) error {
		return &VerifierError{pc, fmt.Sprintf(format, args...)}
	}
	mapArg := func() (Map, error) {
		r1 := st.regs[R1]
		if r1.kind != kindScalar || !r1.known {
			return nil, bad("%s: r1 must be a constant map id", h)
		}
		m := prog.mapByID(r1.val)
		if m == nil {
			return nil, bad("%s: unknown map id %d", h, r1.val)
		}
		return m, nil
	}
	// memArg checks that register r points at n readable bytes the helper
	// may take as its what argument.
	memArg := func(what string, r Reg, n int64) error {
		k := st.regs[r]
		switch k.kind {
		case kindStackPtr:
			start := k.off
			if start < -StackSize || start+n > 0 {
				return bad("%s: %s pointer out of stack bounds", h, what)
			}
			for i := start; i < start+n; i++ {
				if !st.stackInit[-i-1] {
					return bad("%s: %s includes uninitialized stack byte %d", h, what, i)
				}
			}
			return nil
		case kindPktPtr:
			if k.off < 0 || k.off+n > st.checkedLen {
				return bad("%s: packet %s pointer exceeds verified bounds", h, what)
			}
			return nil
		case kindMapValue:
			src := prog.mapByID(k.mapID)
			if src == nil || k.off < 0 || k.off+n > int64(src.ValueSize()) {
				return bad("%s: map-value %s pointer out of bounds", h, what)
			}
			return nil
		default:
			return bad("%s: %s must point to stack, packet or a map value, got %s", h, what, k.kind)
		}
	}
	keyArg := func(m Map) error { return memArg("key", R2, int64(m.KeySize())) }

	clobber := func(result regState) {
		out.regs[R0] = result
		for r := R1; r <= R5; r++ {
			out.regs[r] = regState{kind: kindUninit}
		}
	}

	switch h {
	case HelperMapLookup:
		m, err := mapArg()
		if err != nil {
			return err
		}
		if err := keyArg(m); err != nil {
			return err
		}
		r1 := st.regs[R1]
		clobber(regState{kind: kindMapValueOrNull, mapID: r1.val})
		return nil
	case HelperMapUpdate:
		m, err := mapArg()
		if err != nil {
			return err
		}
		if err := keyArg(m); err != nil {
			return err
		}
		if err := memArg("value", R3, int64(m.ValueSize())); err != nil {
			return err
		}
		clobber(regState{kind: kindScalar})
		return nil
	case HelperMapDelete:
		m, err := mapArg()
		if err != nil {
			return err
		}
		if err := keyArg(m); err != nil {
			return err
		}
		clobber(regState{kind: kindScalar})
		return nil
	case HelperRedirectMap:
		m, err := mapArg()
		if err != nil {
			return err
		}
		if m.Type() != MapTypeDevMap && m.Type() != MapTypeXskMap {
			return bad("redirect_map: map must be a devmap or xskmap, got %s", m.Type())
		}
		if st.regs[R2].kind != kindScalar {
			return bad("redirect_map: r2 index must be a scalar")
		}
		clobber(regState{kind: kindScalar})
		return nil
	case HelperCsumReplace:
		clobber(regState{kind: kindScalar})
		return nil
	default:
		return bad("unknown helper %d", int64(h))
	}
}
