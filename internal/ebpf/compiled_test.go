package ebpf_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ovsxdp/internal/ebpf"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/xdp"
)

// side is one program instance with its own maps: the compiled executor
// runs against one, the reference interpreter against an identical other.
type side struct {
	prog *ebpf.Program
	maps []ebpf.Map
}

// requireSameRun executes frame on both sides and requires the same Result
// (every counter, the action, the redirect target), the same packet bytes,
// the same map contents and the same error-or-not.
func requireSameRun(t *testing.T, compiled, reference side, frame []byte, queue uint32) {
	t.Helper()
	bufC := append([]byte(nil), frame...)
	bufR := append([]byte(nil), frame...)
	var resC ebpf.Result
	errC := compiled.prog.Exec(&ebpf.Context{Packet: bufC, IngressIface: 1, RxQueue: queue}, &resC)
	resR, errR := reference.prog.ReferenceRun(&ebpf.Context{Packet: bufR, IngressIface: 1, RxQueue: queue})

	where := func() string {
		return fmt.Sprintf("program %s, queue %d, frame %x\n%s", compiled.prog.Name, queue, frame, compiled.prog.Disassemble())
	}
	if (errC == nil) != (errR == nil) {
		t.Fatalf("compiled err = %v, reference err = %v\n%s", errC, errR, where())
	}
	// The two sides own distinct map instances: compare which of them was
	// the redirect target, then the rest of the Result by value.
	if mapIndex(compiled, resC.RedirectMap) != mapIndex(reference, resR.RedirectMap) {
		t.Fatalf("redirect map: compiled %v, reference %v\n%s", resC.RedirectMap, resR.RedirectMap, where())
	}
	resC.RedirectMap, resR.RedirectMap = nil, nil
	if resC != resR {
		t.Fatalf("result: compiled %+v, reference %+v\n%s", resC, resR, where())
	}
	if !bytes.Equal(bufC, bufR) {
		t.Fatalf("packet: compiled %x, reference %x\n%s", bufC, bufR, where())
	}
	for i := range compiled.maps {
		if c, r := ebpf.DumpMap(compiled.maps[i]), ebpf.DumpMap(reference.maps[i]); c != r {
			t.Fatalf("map %d: compiled %s, reference %s\n%s", i, c, r, where())
		}
	}
}

func mapIndex(s side, m ebpf.Map) int {
	for i, own := range s.maps {
		if own == m {
			return i
		}
	}
	return -1
}

var (
	macGen = hdr.MAC{0x02, 0xaa, 0, 0, 0, 1}
	macCt  = hdr.MAC{0x02, 0xbb, 0, 0, 0, 1} // in the L2 table
	macOut = hdr.MAC{0x02, 0xcc, 0, 0, 0, 1} // not in it
	vip    = hdr.MakeIP4(192, 168, 0, 100)
)

// libraryPrograms builds every program of the xdp library over fresh maps.
// The xskmap routes queues 0 and 2 only, so queues 1 and 3 take the
// no-target fallback.
func libraryPrograms() []side {
	xsk := ebpf.NewXskMap(4)
	dev := ebpf.NewDevMap(8)
	l2 := ebpf.NewHashMap(8, 4, 128)
	backends := ebpf.NewArrayMap(4, 4)
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(xsk.SetTarget(0, 0))
	must(xsk.SetTarget(2, 7))
	must(dev.SetTarget(0, 3))
	must(l2.Update(xdp.MACKey(macCt), []byte{0, 0, 0, 0}))
	for i := 0; i < 4; i++ {
		must(backends.Update([]byte{byte(i), 0, 0, 0}, []byte{byte(10 + i), 0, 0, 10}))
	}
	maps := []ebpf.Map{xsk, dev, l2, backends}
	progs := []*ebpf.Program{
		xdp.NewPassToXsk(xsk),
		xdp.NewDropAll(),
		xdp.NewParseDrop(),
		xdp.NewParseLookupDrop(l2),
		xdp.NewParseSwapForward(),
		xdp.NewRedirectToVeth(l2, dev, xsk),
		xdp.NewL4LoadBalancer(xdp.LBConfig{VIP: uint32(vip), Port: 80, Backends: backends, NumMask: 3, Xsk: xsk}),
	}
	sides := make([]side, len(progs))
	for i, p := range progs {
		must(p.Load())
		sides[i] = side{prog: p, maps: maps}
	}
	return sides
}

// frameCorpus returns well-formed TCP, UDP and ARP frames, every truncation
// of each, and seeded byte corruptions of each.
func frameCorpus() [][]byte {
	ipA, ipB := hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2)
	whole := [][]byte{
		hdr.NewBuilder().Eth(macGen, macOut).IPv4H(ipA, ipB, 64).UDPH(1234, 5678).PayloadLen(18).PadTo(64).Build(),
		hdr.NewBuilder().Eth(macGen, macCt).IPv4H(ipA, ipB, 64).UDPH(1234, 5678).PayloadLen(18).PadTo(64).Build(),
		hdr.NewBuilder().Eth(macGen, macOut).IPv4H(ipA, vip, 64).TCPH(40000, 80, 1, 0, hdr.TCPSyn).PadTo(64).Build(),
		hdr.NewBuilder().Eth(macGen, macOut).ARPH(1, macGen, ipA, hdr.MAC{}, ipB).PadTo(60).Build(),
	}
	rng := rand.New(rand.NewSource(15))
	var frames [][]byte
	for _, f := range whole {
		for n := 0; n <= len(f); n++ {
			frames = append(frames, f[:n])
		}
		for i := 0; i < 16; i++ {
			c := append([]byte(nil), f...)
			for j := 0; j <= i%4; j++ {
				c[rng.Intn(len(c))] ^= byte(1 + rng.Intn(255))
			}
			frames = append(frames, c)
		}
	}
	return frames
}

// TestCompiledMatchesReference runs every library program over the frame
// corpus on queues with and without an xskmap target, through the compiled
// executor and the reference interpreter.
func TestCompiledMatchesReference(t *testing.T) {
	compiled, reference := libraryPrograms(), libraryPrograms()
	frames := frameCorpus()
	for i := range compiled {
		for _, f := range frames {
			for q := uint32(0); q < 4; q++ {
				requireSameRun(t, compiled[i], reference[i], f, q)
			}
		}
	}
	t.Logf("%d programs x %d frames x 4 queues", len(compiled), len(frames))
}

// TestTwoPointerKindsAtOneInstruction: compile folds the base register's
// region into each load and store, which is sound only because an
// instruction reached with two different pointer kinds (or two offsets of
// one kind) never gets that far — the verifier merges the register to
// "uninitialized" and rejects its use as a base.
func TestTwoPointerKindsAtOneInstruction(t *testing.T) {
	join := func(name string, onJump, onFall ebpf.Insn) *ebpf.Program {
		return ebpf.NewProgram(name,
			ebpf.Ldx(ebpf.SizeW, ebpf.R6, ebpf.R1, ebpf.CtxData),
			ebpf.Ldx(ebpf.SizeW, ebpf.R7, ebpf.R1, ebpf.CtxDataEnd),
			ebpf.Mov(ebpf.R8, ebpf.R6),
			ebpf.AddImm(ebpf.R8, 16),
			ebpf.Jgt(ebpf.R8, ebpf.R7, 7), // short frame: drop
			ebpf.St(ebpf.SizeDW, ebpf.R10, -8, 0),
			ebpf.Ldx(ebpf.SizeB, ebpf.R2, ebpf.R6, 0),
			ebpf.JeqImm(ebpf.R2, 0, 2),
			onFall,
			ebpf.Ja(1),
			onJump,
			ebpf.Ldx(ebpf.SizeB, ebpf.R0, ebpf.R3, 0), // r3 differs by path
			ebpf.MovImm(ebpf.R0, ebpf.XDPDrop),
			ebpf.Exit(),
		)
	}
	for _, p := range []*ebpf.Program{
		join("pkt-or-stack", ebpf.Mov(ebpf.R3, ebpf.R6), ebpf.Mov(ebpf.R3, ebpf.R10)),
		join("pkt-two-offsets", ebpf.Mov(ebpf.R3, ebpf.R6), ebpf.Mov(ebpf.R3, ebpf.R8)),
	} {
		if err := p.Load(); err == nil {
			t.Errorf("%s: an instruction reached with two pointer states must not load", p.Name)
		}
	}
}

// TestALUAndJumpsMatchReference holds every ALU and jump opcode, in both
// operand forms, to the reference on operand pairs around the edges: zero
// divisors, shift counts at and past the register width, sign bits.
func TestALUAndJumpsMatchReference(t *testing.T) {
	vals := []int64{0, 1, 2, 31, 32, 33, 63, 64, 65, 127, -1, -2, 1 << 31, 1 << 32, -1 << 63, 0x0123456789abcdef}
	ops := []ebpf.Op{ebpf.OpMov, ebpf.OpAdd, ebpf.OpSub, ebpf.OpMul, ebpf.OpDiv, ebpf.OpMod, ebpf.OpAnd,
		ebpf.OpOr, ebpf.OpXor, ebpf.OpLsh, ebpf.OpRsh, ebpf.OpNeg,
		ebpf.OpJeq, ebpf.OpJne, ebpf.OpJgt, ebpf.OpJge, ebpf.OpJlt, ebpf.OpJle, ebpf.OpJset}
	for _, o := range ops {
		for _, a := range vals {
			for _, b := range vals {
				for _, useImm := range []bool{false, true} {
					// A jump skips the "r0 = 99" marker; an ALU op leaves its
					// result in r0, the action.
					in := ebpf.Insn{Op: o, Dst: ebpf.R0, Src: ebpf.R2, Imm: b, UseImm: useImm}
					if o >= ebpf.OpJeq {
						in.Off = 1
					}
					insns := []ebpf.Insn{ebpf.MovImm(ebpf.R0, a), ebpf.MovImm(ebpf.R2, b), in,
						ebpf.MovImm(ebpf.R0, 99), ebpf.Exit()}
					if o < ebpf.OpJeq {
						insns = append(insns[:3], ebpf.Exit())
					}
					var sides [2]side
					for i := range sides {
						sides[i].prog = ebpf.NewProgram(o.String(), insns...)
						if err := sides[i].prog.Load(); err != nil {
							if useImm && b == 0 && (o == ebpf.OpDiv || o == ebpf.OpMod) {
								break // the verifier rejects a zero immediate divisor
							}
							t.Fatalf("%s %d, %d: %v", o, a, b, err)
						}
					}
					if sides[1].prog != nil {
						requireSameRun(t, sides[0], sides[1], nil, 0)
					}
				}
			}
		}
	}
}

// fuzzMaps builds the map set fuzzed programs run against: a deliberately
// tiny hash map (so updates hit "full"), an array, an xskmap with holes and
// a devmap, under ids 1-4.
func fuzzMaps() []ebpf.Map {
	h := ebpf.NewHashMap(4, 8, 3)
	a := ebpf.NewArrayMap(8, 4)
	x := ebpf.NewXskMap(4)
	d := ebpf.NewDevMap(4)
	for _, err := range []error{
		h.Update([]byte{1, 0, 0, 0}, []byte{1, 2, 3, 4, 5, 6, 7, 8}),
		a.Update([]byte{2, 0, 0, 0}, []byte{9, 9, 9, 9, 9, 9, 9, 9}),
		x.SetTarget(0, 5), x.SetTarget(2, 6), d.SetTarget(1, 3),
	} {
		if err != nil {
			panic(err)
		}
	}
	return []ebpf.Map{h, a, x, d}
}

// fuzzProgram decodes a byte stream into an instruction stream, four bytes
// an instruction. Most draws come from a menu of shapes the verifier has a
// chance of accepting (registers that exist, forward jumps, small offsets
// off the pointer registers the prologue sets up); one menu entry passes
// the bytes through raw. With prologue set the stream starts from
// initialised registers, a 40-byte packet bounds check and 32 initialised
// stack bytes, so that straight-line bodies usually verify.
func fuzzProgram(data []byte, prologue bool) []ebpf.Insn {
	var insns []ebpf.Insn
	if prologue {
		insns = append(insns,
			ebpf.Mov(ebpf.R9, ebpf.R1),
			ebpf.Ldx(ebpf.SizeW, ebpf.R6, ebpf.R1, ebpf.CtxData),
			ebpf.Ldx(ebpf.SizeW, ebpf.R7, ebpf.R1, ebpf.CtxDataEnd),
			ebpf.Mov(ebpf.R8, ebpf.R6),
			ebpf.AddImm(ebpf.R8, 40),
			ebpf.Jle(ebpf.R8, ebpf.R7, 2),
			ebpf.MovImm(ebpf.R0, ebpf.XDPDrop),
			ebpf.Exit(),
			ebpf.St(ebpf.SizeDW, ebpf.R10, -8, 1),
			ebpf.St(ebpf.SizeDW, ebpf.R10, -16, 2),
			ebpf.St(ebpf.SizeDW, ebpf.R10, -24, 0),
			ebpf.St(ebpf.SizeDW, ebpf.R10, -32, 0x0102030405060708),
			ebpf.MovImm(ebpf.R0, 0),
			ebpf.MovImm(ebpf.R2, 2),
			ebpf.Mov(ebpf.R3, ebpf.R10),
			ebpf.AddImm(ebpf.R3, -16),
			ebpf.MovImm(ebpf.R4, 4),
			ebpf.MovImm(ebpf.R5, 5),
		)
	}
	alu := []ebpf.Op{ebpf.OpMov, ebpf.OpAdd, ebpf.OpSub, ebpf.OpMul, ebpf.OpDiv, ebpf.OpMod,
		ebpf.OpAnd, ebpf.OpOr, ebpf.OpXor, ebpf.OpLsh, ebpf.OpRsh, ebpf.OpNeg}
	jcc := []ebpf.Op{ebpf.OpJeq, ebpf.OpJne, ebpf.OpJgt, ebpf.OpJge, ebpf.OpJlt, ebpf.OpJle, ebpf.OpJset, ebpf.OpJa}
	sizes := []ebpf.Size{ebpf.SizeB, ebpf.SizeH, ebpf.SizeW, ebpf.SizeDW}
	bases := []ebpf.Reg{ebpf.R6, ebpf.R10, ebpf.R0, ebpf.R3, ebpf.R8, ebpf.R9}
	helpers := []ebpf.Helper{ebpf.HelperMapLookup, ebpf.HelperMapUpdate, ebpf.HelperMapDelete,
		ebpf.HelperRedirectMap, ebpf.HelperCsumReplace}
	for ; len(data) >= 4 && len(insns) < 96; data = data[4:] {
		k, a, b, c := data[0], data[1], data[2], data[3]
		rd, rs := ebpf.Reg(a%11), ebpf.Reg(a/11%11)
		off := int16(int8(c)) // small, either sign
		var in ebpf.Insn
		switch k % 12 {
		case 0:
			in = ebpf.MovImm(rd, int64(int8(b))<<(c%40))
		case 1:
			in = ebpf.Insn{Op: alu[int(b)%len(alu)], Dst: rd, Imm: int64(int8(c)), UseImm: true}
		case 2:
			in = ebpf.Insn{Op: alu[int(b)%len(alu)], Dst: rd, Src: rs}
		case 3:
			in = ebpf.Ldx(sizes[b%4], rd, bases[int(b/4)%len(bases)], off)
		case 4:
			in = ebpf.Stx(sizes[b%4], bases[int(b/4)%len(bases)], off, rs)
		case 5:
			in = ebpf.St(sizes[b%4], bases[int(b/4)%len(bases)], off, int64(a))
		case 6:
			in = ebpf.Insn{Op: jcc[int(b)%len(jcc)], Dst: rd, Imm: int64(int8(a)), Off: int16(c % 8), UseImm: true}
		case 7:
			in = ebpf.Insn{Op: jcc[int(b)%len(jcc)], Dst: rd, Src: rs, Off: int16(c % 8)}
		case 8:
			// A whole helper call: map id, key on the stack or in the
			// packet, a value pointer for update, scalar arguments for
			// redirect, and a null check after lookup.
			h := helpers[int(a)%len(helpers)]
			insns = append(insns, ebpf.MovImm(ebpf.R1, int64(1+b%5)))
			switch {
			case h == ebpf.HelperRedirectMap:
				insns = append(insns, ebpf.MovImm(ebpf.R2, int64(c%5)), ebpf.MovImm(ebpf.R3, int64(b>>5)))
			case c&32 != 0:
				insns = append(insns, ebpf.Mov(ebpf.R2, ebpf.R6), ebpf.AddImm(ebpf.R2, int64(c%8)*6))
			default:
				insns = append(insns, ebpf.Mov(ebpf.R2, ebpf.R10), ebpf.AddImm(ebpf.R2, -8*int64(c%5)))
			}
			if h == ebpf.HelperMapUpdate {
				insns = append(insns, ebpf.Mov(ebpf.R3, ebpf.R10), ebpf.AddImm(ebpf.R3, -8*int64(b>>5)))
			}
			in = ebpf.Call(h)
			if h == ebpf.HelperMapLookup {
				insns = append(insns, in)
				in = ebpf.JeqImm(ebpf.R0, 0, int16(c>>6))
			}
		case 9:
			in = ebpf.Ldx(ebpf.SizeW, rd, ebpf.R9, int16(b%5)*4)
		case 10:
			in = ebpf.Exit()
		default:
			in = ebpf.Insn{Op: ebpf.Op(a), Dst: ebpf.Reg(b & 15), Src: ebpf.Reg(b >> 4), Off: off,
				Imm: int64(int8(c)), Size: ebpf.Size(k >> 4), UseImm: k&16 != 0}
		}
		insns = append(insns, in)
	}
	return append(insns, ebpf.MovImm(ebpf.R0, ebpf.XDPPass), ebpf.Exit())
}

// FuzzCompiledMatchesReference generates instruction streams, keeps those
// the verifier accepts, and holds the compiled executor to the reference
// interpreter on them — twice over one pair of programs, so state a run
// leaves behind (stack, map values, maps) is covered too.
func FuzzCompiledMatchesReference(f *testing.F) {
	frame := hdr.NewBuilder().Eth(macGen, macOut).IPv4H(hdr.MakeIP4(10, 0, 0, 1), vip, 64).
		TCPH(40000, 80, 1, 0, hdr.TCPSyn).PadTo(64).Build()
	f.Add([]byte{}, frame, uint8(0), true)
	f.Add([]byte{8, 0, 0, 1, 6, 0, 0, 1, 3, 2, 10, 0, 5, 7, 11, 4}, frame, uint8(2), true)                  // lookup, null check, value load and store
	f.Add([]byte{8, 1, 0, 1, 8, 2, 0, 1, 8, 3, 2, 0, 8, 4, 0, 0}, frame[:41], uint8(1), true)               // update, delete, redirect, csum
	f.Add([]byte{3, 2, 0, 12, 4, 24, 1, 6, 6, 2, 1, 2, 4, 24, 5, 248, 3, 3, 7, 240}, frame, uint8(3), true) // packet and stack traffic around a branch
	f.Add([]byte{0, 0, 2, 0, 10, 0, 0, 0, 11, 1, 0, 0}, frame[:10], uint8(0), false)                        // no prologue, dead code after exit

	f.Fuzz(func(t *testing.T, prog, pkt []byte, queue uint8, prologue bool) {
		insns := fuzzProgram(prog, prologue)
		var sides [2]side
		for i := range sides {
			maps := fuzzMaps()
			p := ebpf.NewProgram("fuzz", insns...)
			for id, m := range maps {
				p.AttachMap(int64(id+1), m)
			}
			if err := p.Load(); err != nil {
				return // rejected: nothing to compare
			}
			sides[i] = side{prog: p, maps: maps}
		}
		if len(pkt) > 256 {
			pkt = pkt[:256]
		}
		requireSameRun(t, sides[0], sides[1], pkt, uint32(queue%4))
		requireSameRun(t, sides[0], sides[1], pkt, uint32(queue%4))
	})
}
