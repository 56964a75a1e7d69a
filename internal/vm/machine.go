package vm

import (
	"fmt"
	"math"
	"math/bits"

	"mica/internal/isa"
	"mica/internal/trace"
)

// ErrBudget is returned by Run when the instruction budget is reached
// before the program halts. It is an expected, non-fatal outcome: workload
// kernels are written as long-running loops and the budget plays the role
// of the trace length. It is the same sentinel every trace.Source returns
// (the Machine is one Source among others), re-exported here so existing
// vm.ErrBudget comparisons keep working.
var ErrBudget = trace.ErrBudget

// Machine executes one assembled program. It is not safe for concurrent
// use; run one Machine per goroutine.
type Machine struct {
	prog *isa.Program
	// R and F are the integer and floating-point register files. R[31]
	// and F[31] are forced to zero after every write.
	R [isa.NumIntRegs]uint64
	F [isa.NumFPRegs]float64
	// Mem is the machine's memory.
	Mem *Memory
	// pc is the current instruction index.
	pc int
	// retired counts executed instructions across Run calls.
	retired uint64
}

// StackBase is the initial stack pointer, placed in its own address
// region; the stack grows down.
const StackBase uint64 = 0x0000_0000_7fff_f000

// New creates a Machine for prog with the data segment loaded and the
// stack pointer initialized. The program's decode-time metadata is
// finalized here so that hand-built Program literals behave exactly like
// assembler output.
func New(prog *isa.Program) *Machine {
	prog.Finalize()
	m := &Machine{prog: prog, Mem: NewMemory()}
	m.Reset()
	return m
}

// Program returns the loaded program.
func (m *Machine) Program() *isa.Program { return m.prog }

// Retired returns the number of instructions retired so far.
func (m *Machine) Retired() uint64 { return m.retired }

// Reset restores the machine to its initial state: registers cleared,
// memory reloaded from the program image, PC at the entry point.
func (m *Machine) Reset() {
	m.R = [isa.NumIntRegs]uint64{}
	m.F = [isa.NumFPRegs]float64{}
	m.Mem.Reset()
	if len(m.prog.Data) > 0 {
		m.Mem.Write(m.prog.DataBase, m.prog.Data)
	}
	m.R[isa.RegSP.Index()] = StackBase
	m.pc = m.prog.Entry
	m.retired = 0
}

// Reg reads an integer register.
func (m *Machine) Reg(r isa.Reg) uint64 { return m.R[r.Index()] }

// execError is a runtime fault with PC context.
type execError struct {
	pc   int
	line int
	msg  string
}

func (e *execError) Error() string {
	return fmt.Sprintf("vm: fault at instruction %d (source line %d): %s", e.pc, e.line, e.msg)
}

// Run executes until the program halts, the budget is exhausted, or a
// fault occurs. budget <= 0 means unlimited. Every retired instruction is
// delivered to obs (which may be nil for pure execution). Returns the
// number of instructions retired by this call, and ErrBudget if the budget
// stopped execution.
func (m *Machine) Run(budget uint64, obs trace.Observer) (uint64, error) {
	insts := m.prog.Insts
	var ev trace.Event
	var n uint64
	for {
		if budget > 0 && n >= budget {
			m.retired += n
			return n, ErrBudget
		}
		if m.pc < 0 || m.pc >= len(insts) {
			m.retired += n
			return n, &execError{pc: m.pc, msg: "pc out of range"}
		}
		in := &insts[m.pc]
		if in.Op == isa.OpHalt {
			// The halt itself is not a workload instruction; stop
			// without emitting an event, mirroring how the paper's
			// traces end at program exit.
			m.retired += n
			return n, nil
		}
		next := m.pc + 1
		meta := &in.Meta

		if obs != nil {
			ev = trace.Event{
				Seq:       m.retired + n,
				PC:        isa.PCForIndex(m.pc),
				Op:        in.Op,
				Class:     meta.Class,
				Src:       meta.Src,
				NSrc:      meta.NSrc,
				Dst:       meta.Dst,
				HasDst:    meta.HasDst,
				DepSrc:    meta.DepSrc,
				NDepSrc:   meta.NDepSrc,
				DepDst:    meta.DepDst,
				HasDepDst: meta.HasDepDst,
			}
		}

		switch meta.Fmt {
		case isa.FmtOperate:
			var b uint64
			var fb float64
			if meta.FPRegs {
				fb = m.F[in.Rb.Index()]
			} else if in.HasImm {
				b = uint64(in.Imm)
			} else {
				b = m.R[in.Rb.Index()]
			}
			if err := m.operate(in, b, fb); err != nil {
				m.retired += n
				return n, err
			}

		case isa.FmtFPUnary:
			m.fpUnary(in)

		case isa.FmtMem:
			addr := m.R[in.Rb.Index()] + uint64(in.Imm)
			size := int(meta.MemSize)
			ev.MemAddr = addr
			ev.MemSize = meta.MemSize
			if meta.Load {
				m.load(in, addr, size)
			} else {
				m.store(in, addr, size)
			}

		case isa.FmtLea:
			v := uint64(in.Imm)
			if in.Rb != isa.RegZero {
				v += m.R[in.Rb.Index()]
			}
			m.writeInt(in.Ra, v)

		case isa.FmtBranch:
			taken := true
			if meta.Conditional {
				taken = m.evalCond(in)
				ev.Conditional = true
			} else if in.Op == isa.OpBr || in.Op == isa.OpBsr {
				m.writeInt(in.Ra, isa.PCForIndex(m.pc+1))
			}
			ev.Taken = taken
			if taken {
				next = in.Target
				ev.Target = isa.PCForIndex(in.Target)
			} else {
				ev.Target = isa.PCForIndex(m.pc + 1)
			}

		case isa.FmtJump:
			target := m.R[in.Rb.Index()]
			if in.Op == isa.OpJsr {
				m.writeInt(in.Ra, isa.PCForIndex(m.pc+1))
			}
			if target < isa.CodeBase || (target-isa.CodeBase)%isa.InstBytes != 0 {
				m.retired += n
				return n, &execError{pc: m.pc, line: in.Line, msg: fmt.Sprintf("indirect jump to non-code address %#x", target)}
			}
			next = isa.IndexForPC(target)
			ev.Taken = true
			ev.Target = target

		case isa.FmtMisc:
			// nop

		default:
			m.retired += n
			return n, &execError{pc: m.pc, line: in.Line, msg: "unhandled format"}
		}

		if obs != nil {
			obs.Observe(&ev)
		}

		m.pc = next
		n++
	}
}

// writeInt writes an integer register honoring the zero register.
func (m *Machine) writeInt(r isa.Reg, v uint64) {
	if r != isa.RegZero {
		m.R[r.Index()] = v
	}
}

// writeFP writes an FP register honoring the zero register.
func (m *Machine) writeFP(r isa.Reg, v float64) {
	if r != isa.RegFZero {
		m.F[r.Index()] = v
	}
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (m *Machine) operate(in *isa.Inst, b uint64, fb float64) error {
	if in.Meta.FPRegs {
		fa := m.F[in.Ra.Index()]
		var v float64
		switch in.Op {
		case isa.OpAddT:
			v = fa + fb
		case isa.OpSubT:
			v = fa - fb
		case isa.OpMulT:
			v = fa * fb
		case isa.OpDivT:
			v = fa / fb
		case isa.OpCmpTEq:
			v = float64(boolToU64(fa == fb))
		case isa.OpCmpTLt:
			v = float64(boolToU64(fa < fb))
		case isa.OpCmpTLe:
			v = float64(boolToU64(fa <= fb))
		default:
			return &execError{pc: m.pc, line: in.Line, msg: "unhandled FP operate " + in.Op.Name()}
		}
		m.writeFP(in.Rc, v)
		return nil
	}

	a := m.R[in.Ra.Index()]
	var v uint64
	switch in.Op {
	case isa.OpAddQ:
		v = a + b
	case isa.OpSubQ:
		v = a - b
	case isa.OpAnd:
		v = a & b
	case isa.OpBic:
		v = a &^ b
	case isa.OpOr:
		v = a | b
	case isa.OpOrnot:
		v = a | ^b
	case isa.OpXor:
		v = a ^ b
	case isa.OpSll:
		v = a << (b & 63)
	case isa.OpSrl:
		v = a >> (b & 63)
	case isa.OpSra:
		v = uint64(int64(a) >> (b & 63))
	case isa.OpCmpEq:
		v = boolToU64(a == b)
	case isa.OpCmpLt:
		v = boolToU64(int64(a) < int64(b))
	case isa.OpCmpLe:
		v = boolToU64(int64(a) <= int64(b))
	case isa.OpCmpULt:
		v = boolToU64(a < b)
	case isa.OpCmpULe:
		v = boolToU64(a <= b)
	case isa.OpS4AddQ:
		v = a*4 + b
	case isa.OpS8AddQ:
		v = a*8 + b
	case isa.OpSextL:
		v = uint64(int64(int32(a)))
	case isa.OpMulQ:
		v = a * b
	case isa.OpUMulH:
		v, _ = bits.Mul64(a, b)
	case isa.OpDivQ:
		if b == 0 {
			return &execError{pc: m.pc, line: in.Line, msg: "integer divide by zero"}
		}
		v = uint64(int64(a) / int64(b))
	case isa.OpRemQ:
		if b == 0 {
			return &execError{pc: m.pc, line: in.Line, msg: "integer remainder by zero"}
		}
		v = uint64(int64(a) % int64(b))
	default:
		return &execError{pc: m.pc, line: in.Line, msg: "unhandled operate " + in.Op.Name()}
	}
	m.writeInt(in.Rc, v)
	return nil
}

func (m *Machine) fpUnary(in *isa.Inst) {
	switch in.Op {
	case isa.OpSqrtT:
		m.writeFP(in.Rc, math.Sqrt(m.F[in.Rb.Index()]))
	case isa.OpCvtQT:
		m.writeFP(in.Rc, float64(int64(math.Float64bits(m.F[in.Rb.Index()]))))
	case isa.OpCvtTQ:
		m.writeFP(in.Rc, math.Float64frombits(uint64(int64(m.F[in.Rb.Index()]))))
	case isa.OpFMov:
		m.writeFP(in.Rc, m.F[in.Rb.Index()])
	case isa.OpFNeg:
		m.writeFP(in.Rc, -m.F[in.Rb.Index()])
	case isa.OpFAbs:
		m.writeFP(in.Rc, math.Abs(m.F[in.Rb.Index()]))
	case isa.OpItofT:
		m.writeFP(in.Rc, math.Float64frombits(m.R[in.Rb.Index()]))
	case isa.OpFtoiT:
		m.writeInt(in.Rc, math.Float64bits(m.F[in.Rb.Index()]))
	}
}

func (m *Machine) load(in *isa.Inst, addr uint64, size int) {
	v := m.Mem.ReadUint(addr, size)
	switch in.Op {
	case isa.OpLdL:
		v = uint64(int64(int32(v)))
	case isa.OpLdT:
		m.writeFP(in.Ra, math.Float64frombits(v))
		return
	case isa.OpLdS:
		m.writeFP(in.Ra, float64(math.Float32frombits(uint32(v))))
		return
	}
	m.writeInt(in.Ra, v)
}

func (m *Machine) store(in *isa.Inst, addr uint64, size int) {
	var v uint64
	switch in.Op {
	case isa.OpStT:
		v = math.Float64bits(m.F[in.Ra.Index()])
	case isa.OpStS:
		v = uint64(math.Float32bits(float32(m.F[in.Ra.Index()])))
	default:
		v = m.R[in.Ra.Index()]
	}
	m.Mem.WriteUint(addr, size, v)
}

func (m *Machine) evalCond(in *isa.Inst) bool {
	if in.Meta.FPRegs {
		fa := m.F[in.Ra.Index()]
		switch in.Op {
		case isa.OpFBeq:
			return fa == 0
		case isa.OpFBne:
			return fa != 0
		case isa.OpFBlt:
			return fa < 0
		case isa.OpFBge:
			return fa >= 0
		}
		return false
	}
	a := m.R[in.Ra.Index()]
	switch in.Op {
	case isa.OpBeq:
		return a == 0
	case isa.OpBne:
		return a != 0
	case isa.OpBlt:
		return int64(a) < 0
	case isa.OpBle:
		return int64(a) <= 0
	case isa.OpBgt:
		return int64(a) > 0
	case isa.OpBge:
		return int64(a) >= 0
	case isa.OpBlbc:
		return a&1 == 0
	case isa.OpBlbs:
		return a&1 == 1
	}
	return false
}
