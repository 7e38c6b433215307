package artifact

import (
	"fmt"

	"mat2c/internal/ir"
	"mat2c/internal/vm"
)

// Program blob framing. The version covers the instruction wire layout
// below; bump it whenever vm.Instr gains a field or an enum changes
// numbering, so stale blobs decode to ErrVersion instead of garbage.
const (
	programMagic   = "M2CP"
	programVersion = 1
)

// Decoder-side enum bounds. The wire stores enums as u8; these caps
// reject values outside today's definitions so a decoded program can
// never carry an operation the VM has no code for. They intentionally
// leave headroom: extending an enum past its cap requires a
// programVersion bump, which the explicit constants make reviewable.
const (
	maxOpc      = int(vm.OpRet)       // vm opcode space
	maxBaseKind = int(ir.Complex)     // int/float/complex
	maxIROp     = int(ir.OpToComplex) // ir operation space
	maxLanes    = 1 << 16             // vector width sanity bound
	maxRegs     = 1 << 24             // register-file sanity bound
)

// EncodeProgram serializes a compiled VM program into the versioned,
// checksummed binary form. The encoding is deterministic: equal
// programs produce equal bytes.
func EncodeProgram(p *vm.Program) []byte {
	var w writer
	w.buf = append(w.buf, programMagic...)
	w.u32(programVersion)
	encodeProgramBody(&w, p)
	return w.bytes()
}

func encodeProgramBody(w *writer, p *vm.Program) {
	w.str(p.Name)
	w.u32(uint32(p.NumRegs))
	w.u32(uint32(len(p.Arrays)))
	for _, a := range p.Arrays {
		w.str(a.Name)
		w.u8(byte(a.Elem))
	}
	params := func(ps []vm.Param) {
		w.u32(uint32(len(ps)))
		for _, q := range ps {
			w.str(q.Name)
			if q.IsArray {
				w.u8(1)
			} else {
				w.u8(0)
			}
			w.u8(byte(q.Elem))
			w.i64(int64(q.Reg))
			w.i64(int64(q.Arr))
		}
	}
	params(p.Params)
	params(p.Results)
	w.u32(uint32(len(p.Instrs)))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		w.u8(byte(in.Op))
		w.u8(byte(in.K.Base))
		w.u32(uint32(in.K.Lanes))
		w.u8(byte(in.OpBase))
		w.u8(byte(in.BOp))
		w.i64(int64(in.Dst))
		w.i64(int64(in.A))
		w.i64(int64(in.B))
		w.u32(uint32(len(in.Args)))
		for _, a := range in.Args {
			w.i64(int64(a))
		}
		w.i64(in.ImmI)
		w.f64(in.ImmF)
		w.c128(in.ImmC)
		w.i64(int64(in.Arr))
		w.i64(int64(in.Off))
		w.str(in.Intr)
		w.str(in.Sem)
	}
}

// DecodeProgram rebuilds a program from EncodeProgram bytes. Arbitrary
// input yields an error wrapping ErrCorrupt or ErrVersion — never a
// panic, and never an allocation larger than the input justifies. A
// successfully decoded program additionally passes vm's structural
// Validate, so register, array, and branch operands are in range.
func DecodeProgram(data []byte) (*vm.Program, error) {
	r, err := checkWrapper(data, programMagic)
	if err != nil {
		return nil, err
	}
	if v := r.u32(); r.err == nil && v != programVersion {
		return nil, fmt.Errorf("%w: program format v%d, this build reads v%d", ErrVersion, v, programVersion)
	}
	p, err := decodeProgramBody(r)
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: invalid program: %v", ErrCorrupt, err)
	}
	return p, nil
}

// DecodeBlob decodes the program blob stored under BlobKey(hash) and
// verifies it: a program whose content hash is not hash (a misfiled or
// forged blob) is rejected with an error wrapping ErrCorrupt. The hash
// is computed once, here, and stays carried on the returned program.
func DecodeBlob(data []byte, hash string) (*vm.Program, error) {
	p, err := DecodeProgram(data)
	if err != nil {
		return nil, err
	}
	if got := p.ContentHash(); got != hash {
		return nil, fmt.Errorf("%w: program blob %s stored under %s", ErrCorrupt, got, hash)
	}
	return p, nil
}

// instrMinBytes is the smallest on-wire instruction (no args, empty
// intrinsic and semantics strings); used to bound the instruction-count
// allocation against the input size.
const instrMinBytes = 1 + 1 + 4 + 1 + 1 + 3*8 + 4 + 8 + 8 + 16 + 8 + 8 + 4 + 4

func decodeProgramBody(r *reader) (*vm.Program, error) {
	p := &vm.Program{}
	p.Name = r.str()
	p.NumRegs = int(r.u32())
	if r.err == nil && p.NumRegs > maxRegs {
		r.fail("register count %d out of range", p.NumRegs)
	}
	nArrays := r.count(5) // str len prefix + elem byte
	if r.err != nil {
		return nil, r.err
	}
	p.Arrays = make([]vm.ArraySlot, nArrays)
	for i := range p.Arrays {
		p.Arrays[i].Name = r.str()
		p.Arrays[i].Elem = ir.BaseKind(r.enum("array elem", maxBaseKind))
	}
	params := func(what string) []vm.Param {
		n := r.count(4 + 1 + 1 + 8 + 8)
		if r.err != nil {
			return nil
		}
		ps := make([]vm.Param, n)
		for i := range ps {
			ps[i].Name = r.str()
			ps[i].IsArray = r.u8() != 0
			ps[i].Elem = ir.BaseKind(r.enum(what+" elem", maxBaseKind))
			ps[i].Reg = int(r.i64())
			ps[i].Arr = int(r.i64())
		}
		return ps
	}
	p.Params = params("param")
	p.Results = params("result")
	nInstrs := r.count(instrMinBytes)
	if r.err != nil {
		return nil, r.err
	}
	p.Instrs = make([]vm.Instr, nInstrs)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		in.Op = vm.Opc(r.enum("opcode", maxOpc))
		in.K.Base = ir.BaseKind(r.enum("kind base", maxBaseKind))
		in.K.Lanes = int(r.u32())
		if r.err == nil && in.K.Lanes > maxLanes {
			r.fail("lanes %d out of range", in.K.Lanes)
		}
		in.OpBase = ir.BaseKind(r.enum("op base", maxBaseKind))
		in.BOp = ir.Op(r.enum("ir op", maxIROp))
		in.Dst = int(r.i64())
		in.A = int(r.i64())
		in.B = int(r.i64())
		nArgs := r.count(8)
		if r.err != nil {
			return nil, r.err
		}
		if nArgs > 0 {
			in.Args = make([]int, nArgs)
			for j := range in.Args {
				in.Args[j] = int(r.i64())
			}
		}
		in.ImmI = r.i64()
		in.ImmF = r.f64()
		in.ImmC = r.c128()
		in.Arr = int(r.i64())
		in.Off = int(r.i64())
		in.Intr = r.str()
		in.Sem = r.str()
		if r.err != nil {
			return nil, r.err
		}
	}
	return p, r.err
}
