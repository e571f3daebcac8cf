package ebpf

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the reference the differential tests compare the compiled
// executor against: the decode-per-step interpreter that used to be
// Program.Run, kept verbatim except that its scratch memory is local to the
// run and that helper pointers may name a map value (the map_update value
// argument the verifier accepts). It reads Insns and the attached maps
// directly and takes nothing from the verifier's analysis.

// refScratch is the reference interpreter's per-run memory.
type refScratch struct {
	stack   [StackSize]byte
	mapVals [][]byte
}

// ReferenceRun interprets the program against ctx one Insn at a time.
func (p *Program) ReferenceRun(ctx *Context) (Result, error) {
	var res Result
	if !p.Verified() {
		return res, fmt.Errorf("ebpf: program %q not loaded", p.Name)
	}

	var regs [NumRegs]uint64
	regs[R1] = vaCtx
	regs[R10] = vaStackTop
	sc := &refScratch{}

	const maxExec = 2 * MaxInsns // loop-free programs can't exceed len(Insns)
	pc := 0
	for steps := 0; ; steps++ {
		if steps > maxExec {
			return res, &ErrRuntime{pc, "instruction budget exceeded"}
		}
		if pc < 0 || pc >= len(p.Insns) {
			return res, &ErrRuntime{pc, "pc out of range"}
		}
		in := p.Insns[pc]
		res.Insns++

		src := regs[0] // placeholder
		if in.UseImm {
			src = uint64(in.Imm)
		} else {
			src = regs[in.Src]
		}

		switch in.Op {
		case OpMov:
			regs[in.Dst] = src
		case OpAdd:
			regs[in.Dst] += src
		case OpSub:
			regs[in.Dst] -= src
		case OpMul:
			regs[in.Dst] *= src
		case OpDiv:
			if src == 0 {
				regs[in.Dst] = 0
			} else {
				regs[in.Dst] /= src
			}
		case OpMod:
			if src == 0 {
				regs[in.Dst] = 0
			} else {
				regs[in.Dst] %= src
			}
		case OpAnd:
			regs[in.Dst] &= src
		case OpOr:
			regs[in.Dst] |= src
		case OpXor:
			regs[in.Dst] ^= src
		case OpLsh:
			regs[in.Dst] <<= src & 63
		case OpRsh:
			regs[in.Dst] >>= src & 63
		case OpNeg:
			regs[in.Dst] = -regs[in.Dst]

		case OpLdx:
			if regs[in.Src] == vaCtx {
				switch int64(in.Off) {
				case CtxData:
					regs[in.Dst] = vaPacket
				case CtxDataEnd:
					regs[in.Dst] = vaPacket + uint64(len(ctx.Packet))
				case CtxIngressIface:
					regs[in.Dst] = uint64(ctx.IngressIface)
				case CtxRxQueue:
					regs[in.Dst] = uint64(ctx.RxQueue)
				default:
					return res, &ErrRuntime{pc, "bad ctx offset"}
				}
				break
			}
			addr := regs[in.Src] + uint64(int64(in.Off))
			mem, isPkt, err := sc.resolve(ctx, addr, int(in.Size), pc)
			if err != nil {
				return res, err
			}
			if isPkt {
				res.TouchedPacket = true
				regs[in.Dst] = loadBE(mem)
			} else {
				regs[in.Dst] = loadLE(mem)
			}

		case OpStx, OpSt:
			addr := regs[in.Dst] + uint64(int64(in.Off))
			mem, isPkt, err := sc.resolve(ctx, addr, int(in.Size), pc)
			if err != nil {
				return res, err
			}
			val := src
			if in.Op == OpStx {
				val = regs[in.Src]
			} else {
				val = uint64(in.Imm)
			}
			if isPkt {
				res.WrotePacket = true
				storeBE(mem, val)
			} else {
				storeLE(mem, val)
			}

		case OpJa:
			pc += int(in.Off)
		case OpJeq:
			if regs[in.Dst] == src {
				pc += int(in.Off)
			}
		case OpJne:
			if regs[in.Dst] != src {
				pc += int(in.Off)
			}
		case OpJgt:
			if regs[in.Dst] > src {
				pc += int(in.Off)
			}
		case OpJge:
			if regs[in.Dst] >= src {
				pc += int(in.Off)
			}
		case OpJlt:
			if regs[in.Dst] < src {
				pc += int(in.Off)
			}
		case OpJle:
			if regs[in.Dst] <= src {
				pc += int(in.Off)
			}
		case OpJset:
			if regs[in.Dst]&src != 0 {
				pc += int(in.Off)
			}

		case OpCall:
			if err := p.refCall(ctx, sc, Helper(in.Imm), &regs, &res, pc); err != nil {
				return res, err
			}

		case OpExit:
			res.Action = int64(regs[R0])
			return res, nil

		default:
			return res, &ErrRuntime{pc, "bad opcode"}
		}
		pc++
	}
}

// resolve maps a virtual address to interpreter memory (packet, stack, or a
// map value handed out this run).
func (sc *refScratch) resolve(ctx *Context, addr uint64, size int, pc int) ([]byte, bool, error) {
	switch {
	case addr >= vaPacket && addr+uint64(size) <= vaPacket+uint64(len(ctx.Packet)):
		off := addr - vaPacket
		return ctx.Packet[off : off+uint64(size)], true, nil
	case addr <= vaStackTop && addr >= vaStackTop-StackSize && addr+uint64(size) <= vaStackTop:
		off := StackSize - (vaStackTop - addr)
		return sc.stack[off : off+uint64(size)], false, nil
	case addr >= vaMapVal:
		idx := (addr - vaMapVal) / mapValStep
		if int(idx) < len(sc.mapVals) {
			off := (addr - vaMapVal) % mapValStep
			v := sc.mapVals[idx]
			if off+uint64(size) <= uint64(len(v)) {
				return v[off : off+uint64(size)], false, nil
			}
		}
	}
	return nil, false, &ErrRuntime{pc, fmt.Sprintf("bad memory access at %#x size %d", addr, size)}
}

// readMem resolves a helper argument pointer.
func (sc *refScratch) readMem(ctx *Context, res *Result, addr uint64, n int, pc int) ([]byte, error) {
	switch {
	case addr >= vaPacket && addr+uint64(n) <= vaPacket+uint64(len(ctx.Packet)):
		off := addr - vaPacket
		res.TouchedPacket = true
		return ctx.Packet[off : off+uint64(n)], nil
	case addr <= vaStackTop && addr >= vaStackTop-StackSize && addr+uint64(n) <= vaStackTop:
		off := StackSize - (vaStackTop - addr)
		return sc.stack[off : off+uint64(n)], nil
	case addr >= vaMapVal:
		if mem, _, err := sc.resolve(ctx, addr, n, pc); err == nil {
			return mem, nil
		}
	}
	return nil, &ErrRuntime{pc, fmt.Sprintf("helper pointer %#x out of range", addr)}
}

// refCall dispatches a helper.
func (p *Program) refCall(ctx *Context, sc *refScratch, h Helper, regs *[NumRegs]uint64, res *Result, pc int) error {
	clobber := func(r0 uint64) {
		regs[R0] = r0
		for r := R1; r <= R5; r++ {
			regs[r] = 0xdead // poison, matching the ABI
		}
	}

	switch h {
	case HelperMapLookup:
		m := p.mapByID(int64(regs[R1]))
		if m == nil {
			return &ErrRuntime{pc, "map_lookup on unknown map"}
		}
		key, err := sc.readMem(ctx, res, regs[R2], m.KeySize(), pc)
		if err != nil {
			return err
		}
		switch m.Type() {
		case MapTypeArray:
			res.ArrayLookups++
		default:
			res.HashLookups++
		}
		v := m.Lookup(key)
		if v == nil {
			clobber(0)
			return nil
		}
		sc.mapVals = append(sc.mapVals, v)
		clobber(vaMapVal + uint64(len(sc.mapVals)-1)*mapValStep)
		return nil

	case HelperMapUpdate:
		m := p.mapByID(int64(regs[R1]))
		if m == nil {
			return &ErrRuntime{pc, "map_update on unknown map"}
		}
		key, err := sc.readMem(ctx, res, regs[R2], m.KeySize(), pc)
		if err != nil {
			return err
		}
		val, err := sc.readMem(ctx, res, regs[R3], m.ValueSize(), pc)
		if err != nil {
			return err
		}
		res.OtherHelpers++
		if err := m.Update(key, val); err != nil {
			clobber(^uint64(0)) // -1
		} else {
			clobber(0)
		}
		return nil

	case HelperMapDelete:
		m := p.mapByID(int64(regs[R1]))
		if m == nil {
			return &ErrRuntime{pc, "map_delete on unknown map"}
		}
		key, err := sc.readMem(ctx, res, regs[R2], m.KeySize(), pc)
		if err != nil {
			return err
		}
		res.OtherHelpers++
		if err := m.Delete(key); err != nil {
			clobber(^uint64(0))
		} else {
			clobber(0)
		}
		return nil

	case HelperRedirectMap:
		m := p.mapByID(int64(regs[R1]))
		if m == nil {
			return &ErrRuntime{pc, "redirect_map on unknown map"}
		}
		tm, ok := m.(*TargetMap)
		if !ok {
			return &ErrRuntime{pc, "redirect_map on non-target map"}
		}
		res.OtherHelpers++
		idx := uint32(regs[R2])
		if _, ok := tm.Target(idx); !ok {
			// Kernel behaviour: fall back to the flags value
			// (commonly XDP_ABORTED or XDP_PASS).
			clobber(uint64(regs[R3]))
			return nil
		}
		res.RedirectMap = tm
		res.RedirectIndex = idx
		clobber(XDPRedirect)
		return nil

	case HelperCsumReplace:
		res.OtherHelpers++
		clobber(0)
		return nil

	default:
		return &ErrRuntime{pc, fmt.Sprintf("unknown helper %d", int64(h))}
	}
}

// DumpMap renders a map's full contents in a fixed order, so two maps can be
// compared after the compiled and the reference executor each ran against
// one.
func DumpMap(m Map) string {
	switch m := m.(type) {
	case *HashMap:
		keys := make([]string, 0, len(m.m))
		for k := range m.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%x=%x ", k, m.m[k])
		}
		return b.String()
	case *ArrayMap:
		return fmt.Sprintf("%x", m.values)
	case *TargetMap:
		return fmt.Sprintf("%x %v", m.vals, m.present)
	default:
		return fmt.Sprintf("%T", m)
	}
}
