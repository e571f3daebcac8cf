package ebpf

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Program is a loadable eBPF program: instructions plus references to the
// maps it uses (by small integer id, the analog of a map fd embedded at load
// time).
type Program struct {
	Name  string
	Insns []Insn
	maps  map[int64]Map

	// code, calls and stackLo are what Load compiled Insns into (compile.go);
	// code is nil until the verifier has accepted the program.
	code    []op
	calls   []callSite
	stackLo int

	// scratch is the per-execution memory reused across runs. The simulator
	// is single-goroutine and programs never run reentrantly, so one scratch
	// per program suffices; reusing it keeps the per-packet hot path
	// allocation-free.
	scratch runScratch
}

// runScratch holds a run's mutable memory: the BPF stack and the map-value
// regions handed out by map_lookup during the run. Every run starts with an
// all-zero stack: only bytes from Program.stackLo up can ever be stored to,
// and Exec re-zeroes exactly those.
type runScratch struct {
	stack   [StackSize]byte
	mapVals [][]byte
}

// NewProgram builds a program from instructions.
func NewProgram(name string, insns ...Insn) *Program {
	return &Program{Name: name, Insns: insns, maps: make(map[int64]Map)}
}

// AttachMap registers m under id so instructions can reference it. Load
// binds maps to their call sites, so attaching one unloads the program.
func (p *Program) AttachMap(id int64, m Map) *Program {
	p.maps[id] = m
	p.code = nil
	return p
}

func (p *Program) mapByID(id int64) Map {
	if p.maps == nil {
		return nil
	}
	return p.maps[id]
}

// Load verifies the program and compiles it into its runnable form — the
// analog of the BPF syscall passing the in-kernel verifier and the JIT in
// the paper's Figure 4 workflow.
func (p *Program) Load() error {
	states, err := verify(p)
	if err != nil {
		return err
	}
	p.compile(states)
	return nil
}

// Verified reports whether Load has succeeded.
func (p *Program) Verified() bool { return p.code != nil }

// Disassemble returns the program listing, one instruction per line.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for i, in := range p.Insns {
		fmt.Fprintf(&b, "%3d: %s\n", i, in)
	}
	return b.String()
}

// Context is the XDP execution context (struct xdp_md analog). Packet is
// mutable: programs may rewrite headers in place.
type Context struct {
	Packet       []byte
	IngressIface uint32
	RxQueue      uint32
}

// Result summarizes one program execution. The counters feed the
// simulation's cost model (Table 5 charges per instruction, per map lookup,
// and per first packet touch).
type Result struct {
	// Action is the XDP action code in R0 at exit.
	Action int64
	// Redirect describes the redirect_map target when Action is
	// XDPRedirect.
	RedirectMap   *TargetMap
	RedirectIndex uint32

	// Execution counters for cost metering.
	Insns         int
	HashLookups   int
	ArrayLookups  int
	OtherHelpers  int
	TouchedPacket bool
	WrotePacket   bool
}

// Virtual address-space bases programs see in their registers. Packet,
// stack and context accesses are compiled to their region and never go
// through an address; map-value pointers and helper arguments do, and are
// range-checked on every use.
const (
	vaPacket   = 0x1000_0000
	vaStackTop = 0x2000_0000 // stack grows down from here
	vaCtx      = 0x3000_0000
	vaMapVal   = 0x4000_0000
	mapValStep = 0x0001_0000
)

// ErrRuntime reports a fault during execution (impossible for verified
// programs unless the harness mutates state underneath them).
type ErrRuntime struct {
	PC     int
	Reason string
}

func (e *ErrRuntime) Error() string {
	return fmt.Sprintf("ebpf: runtime fault at insn %d: %s", e.PC, e.Reason)
}

// Run executes the program against ctx and returns the result by value, for
// callers off the per-packet path.
func (p *Program) Run(ctx *Context) (Result, error) {
	var res Result
	err := p.Exec(ctx, &res)
	return res, err
}

// Exec executes the loaded program against ctx, overwriting *res.
//
// Memory model: loads and stores through packet pointers are big-endian
// (network byte order, as if the program applied ntohs/ntohl at each load);
// stack and map-value accesses are little-endian (host order). This spares
// the sample programs explicit byte-swap instructions without changing
// their structure or cost.
//
// A program cannot loop: compile emits only forward jump targets, so a run
// executes each op at most once.
func (p *Program) Exec(ctx *Context, res *Result) error {
	*res = Result{}
	code := p.code
	if code == nil {
		return fmt.Errorf("ebpf: program %q not loaded", p.Name)
	}

	// Sixteen slots so a masked index needs no bounds check; slot regImm
	// carries the current op's immediate.
	var regs [16]uint64
	regs[R1] = vaCtx
	regs[R10] = vaStackTop
	sc := &p.scratch
	clear(sc.stack[p.stackLo:])
	sc.mapVals = sc.mapVals[:0]
	pkt := ctx.Packet

	pc, insns, fault := 0, 0, ""
run:
	for {
		if uint(pc) >= uint(len(code)) {
			fault = "pc out of range"
			break
		}
		in := &code[pc]
		insns++
		regs[regImm] = in.imm
		d, s := in.dst&15, regs[in.src&15]

		switch in.code {
		case OpMov:
			regs[d] = s
		case OpAdd:
			regs[d] += s
		case OpSub:
			regs[d] -= s
		case OpMul:
			regs[d] *= s
		case OpDiv:
			if s == 0 {
				regs[d] = 0
			} else {
				regs[d] /= s
			}
		case OpMod:
			if s == 0 {
				regs[d] = 0
			} else {
				regs[d] %= s
			}
		case OpAnd:
			regs[d] &= s
		case OpOr:
			regs[d] |= s
		case OpXor:
			regs[d] ^= s
		case OpLsh:
			regs[d] <<= s & 63
		case OpRsh:
			regs[d] >>= s & 63
		case OpNeg:
			regs[d] = -regs[d]

		case opLdCtxData:
			regs[d] = vaPacket
		case opLdCtxDataEnd:
			regs[d] = vaPacket + uint64(len(pkt))
		case opLdCtxIngressIface:
			regs[d] = uint64(ctx.IngressIface)
		case opLdCtxRxQueue:
			regs[d] = uint64(ctx.RxQueue)

		case opLdPkt:
			end := int(in.arg) + int(in.size)
			if end > len(pkt) {
				fault = "packet load beyond data_end"
				break run
			}
			res.TouchedPacket = true
			regs[d] = loadBE(pkt[in.arg:end])
		case opLdStack:
			regs[d] = loadLE(sc.stack[in.arg : int(in.arg)+int(in.size)])
		case opLdMap:
			mem := sc.resolve(s+uint64(int64(in.arg)), int(in.size))
			if mem == nil {
				fault = "bad map value load"
				break run
			}
			regs[d] = loadLE(mem)

		case opStPkt:
			end := int(in.arg) + int(in.size)
			if end > len(pkt) {
				fault = "packet store beyond data_end"
				break run
			}
			res.WrotePacket = true
			storeBE(pkt[in.arg:end], s)
		case opStStack:
			storeLE(sc.stack[in.arg:int(in.arg)+int(in.size)], s)
		case opStMap:
			mem := sc.resolve(regs[d]+uint64(int64(in.arg)), int(in.size))
			if mem == nil {
				fault = "bad map value store"
				break run
			}
			storeLE(mem, s)

		case OpJa:
			pc = int(in.arg)
			continue
		case OpJeq:
			if regs[d] == s {
				pc = int(in.arg)
				continue
			}
		case OpJne:
			if regs[d] != s {
				pc = int(in.arg)
				continue
			}
		case OpJgt:
			if regs[d] > s {
				pc = int(in.arg)
				continue
			}
		case OpJge:
			if regs[d] >= s {
				pc = int(in.arg)
				continue
			}
		case OpJlt:
			if regs[d] < s {
				pc = int(in.arg)
				continue
			}
		case OpJle:
			if regs[d] <= s {
				pc = int(in.arg)
				continue
			}
		case OpJset:
			if regs[d]&s != 0 {
				pc = int(in.arg)
				continue
			}

		case OpCall:
			if fault = p.call(ctx, &p.calls[in.arg], &regs, res); fault != "" {
				break run
			}

		case OpExit:
			res.Action = int64(regs[R0])
			res.Insns = insns
			return nil

		default: // opDead: the verifier found no path here
			fault = "unreachable instruction"
			break run
		}
		pc++
	}
	res.Insns = insns
	return &ErrRuntime{pc, fault}
}

// resolve maps the address of a map value handed out this run to its
// memory, or nil when [addr, addr+size) is not inside one.
func (sc *runScratch) resolve(addr uint64, size int) []byte {
	if addr < vaMapVal {
		return nil
	}
	idx, off := (addr-vaMapVal)/mapValStep, (addr-vaMapVal)%mapValStep
	if idx >= uint64(len(sc.mapVals)) {
		return nil
	}
	v := sc.mapVals[idx]
	if off+uint64(size) > uint64(len(v)) {
		return nil
	}
	return v[off : off+uint64(size)]
}

// readMem resolves a helper argument pointer to n bytes of packet, stack or
// map-value memory, or nil.
func (sc *runScratch) readMem(ctx *Context, res *Result, addr uint64, n int) []byte {
	switch {
	case addr >= vaPacket && addr+uint64(n) <= vaPacket+uint64(len(ctx.Packet)):
		off := addr - vaPacket
		res.TouchedPacket = true
		return ctx.Packet[off : off+uint64(n)]
	case addr <= vaStackTop && addr >= vaStackTop-StackSize && addr+uint64(n) <= vaStackTop:
		off := StackSize - (vaStackTop - addr)
		return sc.stack[off : off+uint64(n)]
	}
	return sc.resolve(addr, n)
}

// setReturn applies the helper calling convention: R0 receives the result
// and the argument registers are poisoned, matching the ABI.
func setReturn(regs *[16]uint64, r0 uint64) {
	regs[R0] = r0
	for r := R1; r <= R5; r++ {
		regs[r] = 0xdead
	}
}

// call runs the helper bound at one call site; a non-empty return is the
// reason the run faulted.
func (p *Program) call(ctx *Context, cs *callSite, regs *[16]uint64, res *Result) string {
	sc := &p.scratch
	m := cs.m
	var key []byte
	switch cs.helper {
	case HelperMapLookup, HelperMapUpdate, HelperMapDelete:
		if key = sc.readMem(ctx, res, regs[R2], m.KeySize()); key == nil {
			return fmt.Sprintf("helper pointer %#x out of range", regs[R2])
		}
	}

	switch cs.helper {
	case HelperMapLookup:
		if m.Type() == MapTypeArray {
			res.ArrayLookups++
		} else {
			res.HashLookups++
		}
		v := m.Lookup(key)
		if v == nil {
			setReturn(regs, 0)
			return ""
		}
		sc.mapVals = append(sc.mapVals, v)
		setReturn(regs, vaMapVal+uint64(len(sc.mapVals)-1)*mapValStep)

	case HelperMapUpdate:
		val := sc.readMem(ctx, res, regs[R3], m.ValueSize())
		if val == nil {
			return fmt.Sprintf("helper pointer %#x out of range", regs[R3])
		}
		res.OtherHelpers++
		if err := m.Update(key, val); err != nil {
			setReturn(regs, ^uint64(0)) // -1
		} else {
			setReturn(regs, 0)
		}

	case HelperMapDelete:
		res.OtherHelpers++
		if err := m.Delete(key); err != nil {
			setReturn(regs, ^uint64(0))
		} else {
			setReturn(regs, 0)
		}

	case HelperRedirectMap:
		if cs.target == nil {
			return "redirect_map on non-target map"
		}
		res.OtherHelpers++
		idx := uint32(regs[R2])
		if _, ok := cs.target.Target(idx); !ok {
			// Kernel behaviour: fall back to the flags value
			// (commonly XDP_ABORTED or XDP_PASS).
			setReturn(regs, regs[R3])
			return ""
		}
		res.RedirectMap = cs.target
		res.RedirectIndex = idx
		setReturn(regs, XDPRedirect)

	case HelperCsumReplace:
		res.OtherHelpers++
		setReturn(regs, 0)

	default:
		return fmt.Sprintf("unknown helper %d", int64(cs.helper))
	}
	return ""
}

func loadBE(b []byte) uint64 {
	switch len(b) {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.BigEndian.Uint16(b))
	case 4:
		return uint64(binary.BigEndian.Uint32(b))
	default:
		return binary.BigEndian.Uint64(b)
	}
}

func storeBE(b []byte, v uint64) {
	switch len(b) {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.BigEndian.PutUint16(b, uint16(v))
	case 4:
		binary.BigEndian.PutUint32(b, uint32(v))
	default:
		binary.BigEndian.PutUint64(b, v)
	}
}

func loadLE(b []byte) uint64 {
	switch len(b) {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

func storeLE(b []byte, v uint64) {
	switch len(b) {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}
