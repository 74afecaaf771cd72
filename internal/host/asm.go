package host

import "fmt"

// Asm is a small host-code emitter used by the binary translator and the
// tests. It assembles a contiguous run of instruction words starting at a
// base address, with label/fixup support for local branches.
//
// Labels are small integers handed out by NewLabel; Label and Br accept
// string names as a convenience for hand-written code and map them onto
// the same integer labels. An Asm can be recycled with Reset, which keeps
// its buffers, so an emitter that assembles many short sequences (the
// translator) allocates only while the buffers grow.
//
// Errors (bad displacement, unknown label) are sticky and reported by
// Finish, so emission code can be written straight-line.
type Asm struct {
	base   uint64
	words  []uint32
	labels []int // Label -> word index, or -1 while unbound
	fixups []fixup
	names  map[string]Label // string-named labels, made on first use
	err    error
}

// Label names a branch target within one assembly; obtain one from
// NewLabel. The zero Label is never handed out, so a branch to an
// uninitialized Label fails at Finish as an undefined label.
type Label int32

type fixup struct {
	index int   // word to patch
	label Label // target label
}

// NewAsm returns an emitter whose first instruction lands at base. The base
// must be 4-byte aligned.
func NewAsm(base uint64) *Asm {
	a := &Asm{}
	a.Reset(base)
	return a
}

// Reset empties the emitter and re-bases it at base, keeping its buffers.
// Words returned by an earlier Finish are overwritten by later emission.
func (a *Asm) Reset(base uint64) {
	a.base = base
	a.words = a.words[:0]
	a.labels = append(a.labels[:0], -1) // Label 0 is never handed out
	a.fixups = a.fixups[:0]
	clear(a.names)
	a.err = nil
	if base%InstBytes != 0 {
		a.fail(fmt.Errorf("host: asm base %#x not instruction-aligned", base))
	}
}

func (a *Asm) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// PC returns the address of the next instruction to be emitted.
func (a *Asm) PC() uint64 { return a.base + uint64(len(a.words))*InstBytes }

// Len returns the number of instructions emitted so far.
func (a *Asm) Len() int { return len(a.words) }

// Emit appends one instruction.
func (a *Asm) Emit(i Inst) {
	w, err := Encode(i)
	if err != nil {
		a.fail(err)
	}
	a.words = append(a.words, w)
}

// NewLabel returns a fresh, unbound label.
func (a *Asm) NewLabel() Label {
	a.labels = append(a.labels, -1)
	return Label(len(a.labels) - 1)
}

// Bind defines l at the current PC. Binding a label twice is an error.
func (a *Asm) Bind(l Label) {
	if a.labels[l] >= 0 {
		a.fail(fmt.Errorf("host: asm: label %s bound twice", a.labelName(l)))
		return
	}
	a.labels[l] = len(a.words)
}

// Label defines the string-named label name at the current PC.
func (a *Asm) Label(name string) { a.Bind(a.named(name)) }

// named returns the label for name, creating it on first use.
func (a *Asm) named(name string) Label {
	if l, ok := a.names[name]; ok {
		return l
	}
	if a.names == nil {
		a.names = make(map[string]Label)
	}
	l := a.NewLabel()
	a.names[name] = l
	return l
}

// labelName renders l for error messages: its string name if it has one.
func (a *Asm) labelName(l Label) string {
	for name, nl := range a.names {
		if nl == l {
			return fmt.Sprintf("%q", name)
		}
	}
	return fmt.Sprintf("#%d", l)
}

// Mem emits a memory-format instruction: op ra, disp(rb).
func (a *Asm) Mem(op Op, ra Reg, disp int32, rb Reg) {
	a.Emit(Inst{Op: op, Ra: ra, Rb: rb, Disp: disp})
}

// Opr emits a register operate instruction: op ra, rb, rc.
func (a *Asm) Opr(op Op, ra, rb, rc Reg) {
	a.Emit(Inst{Op: op, Ra: ra, Rb: rb, Rc: rc})
}

// OprLit emits a literal operate instruction: op ra, #lit, rc.
func (a *Asm) OprLit(op Op, ra Reg, lit uint8, rc Reg) {
	a.Emit(Inst{Op: op, Ra: ra, Lit: lit, IsLit: true, Rc: rc})
}

// Mov emits a register move (BIS rs, rs, rd).
func (a *Asm) Mov(rs, rd Reg) { a.Opr(BIS, rs, rs, rd) }

// Br emits a branch-format instruction targeting the string-named label,
// fixed up at Finish time.
func (a *Asm) Br(op Op, ra Reg, label string) { a.BrLabel(op, ra, a.named(label)) }

// BrLabel emits a branch-format instruction targeting l, fixed up at
// Finish time.
func (a *Asm) BrLabel(op Op, ra Reg, l Label) {
	a.fixups = append(a.fixups, fixup{index: len(a.words), label: l})
	a.Emit(Inst{Op: op, Ra: ra})
}

// BrTo emits a branch-format instruction targeting an absolute address.
func (a *Asm) BrTo(op Op, ra Reg, target uint64) {
	d, ok := BrDispFor(a.PC(), target)
	if !ok {
		a.fail(fmt.Errorf("host: asm: branch at %#x to %#x out of range", a.PC(), target))
	}
	a.Emit(Inst{Op: op, Ra: ra, Disp: d})
}

// Jmp emits a jump-format instruction: op ra, (rb).
func (a *Asm) Jmp(op Op, ra, rb Reg) {
	a.Emit(Inst{Op: op, Ra: ra, Rb: rb})
}

// Brk emits a BRKBT runtime callback with the given service payload.
func (a *Asm) Brk(payload uint32) {
	a.Emit(Inst{Op: BRKBT, Payload: payload})
}

// MovImm materializes a 64-bit constant into r using LDA/LDAH/SLL
// combinations (2 instructions for values representable as sext32, more for
// wider constants).
func (a *Asm) MovImm(r Reg, v int64) {
	if v == int64(int32(v)) {
		lo := int16(v)
		hi := int32((v - int64(lo)) >> 16)
		switch {
		case hi == 0:
			a.Mem(LDA, r, int32(lo), Zero)
			return
		case hi == int32(int16(hi)):
			a.Mem(LDAH, r, hi, Zero)
			if lo != 0 {
				a.Mem(LDA, r, int32(lo), r)
			}
			return
		case hi == 0x8000:
			// The LDAH carry case (v near +2^31): split the high part over
			// two LDAHs — the intermediate overflows 32 bits but not 64.
			a.Mem(LDAH, r, 0x4000, Zero)
			a.Mem(LDAH, r, 0x4000, r)
			if lo != 0 {
				a.Mem(LDA, r, int32(lo), r)
			}
			return
		}
	}
	// General case: build from 16-bit chunks, shifting as we go.
	a.Mem(LDA, r, int32(int16(v>>48)), Zero)
	for shift := 32; shift >= 0; shift -= 16 {
		a.OprLit(SLL, r, 16, r)
		chunk := int16(v >> shift)
		if chunk != 0 {
			// LDA sign-extends; compensate by adding back 0x10000 when the
			// chunk is negative (the next shift folds the borrow away only
			// when one exists, so add explicitly).
			a.Mem(LDA, r, int32(chunk), r)
			if chunk < 0 {
				a.Mem(LDAH, r, 1, r)
			}
		}
	}
}

// Finish resolves fixups and returns the assembled instruction words. The
// slice aliases the emitter's buffer: it stays valid until the next Reset.
func (a *Asm) Finish() ([]uint32, error) {
	for _, f := range a.fixups {
		idx := a.labels[f.label]
		if idx < 0 {
			a.fail(fmt.Errorf("host: asm: undefined label %s", a.labelName(f.label)))
			continue
		}
		pc := a.base + uint64(f.index)*InstBytes
		target := a.base + uint64(idx)*InstBytes
		d, ok := BrDispFor(pc, target)
		if !ok {
			a.fail(fmt.Errorf("host: asm: branch to %s out of range", a.labelName(f.label)))
			continue
		}
		a.words[f.index] = a.words[f.index]&^0x1FFFFF | uint32(d)&0x1FFFFF
	}
	if a.err != nil {
		return nil, a.err
	}
	return a.words, nil
}

// Bytes returns the assembled code as little-endian bytes.
func (a *Asm) Bytes() ([]byte, error) {
	words, err := a.Finish()
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(words)*InstBytes)
	for i, w := range words {
		out[4*i] = byte(w)
		out[4*i+1] = byte(w >> 8)
		out[4*i+2] = byte(w >> 16)
		out[4*i+3] = byte(w >> 24)
	}
	return out, nil
}
