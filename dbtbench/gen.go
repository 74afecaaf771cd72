package main

import (
	"fmt"
	"math/rand"

	"mdabt/internal/guest"
	"mdabt/internal/mem"
)

// GenSpec dials one generated cold program: a chain of Blocks distinct
// straight-line blocks, each ending in a conditional branch, that the main
// loop calls Iterations times. Every block holds SitesPerBlock memory
// sites over a DataBytes data arena. A site is misaligned from the first
// iteration with probability MisFrac, turns misaligned at iteration
// LateIter with probability LateFrac (after DPEH's interpretation window,
// so profiling cannot see it), and stays aligned otherwise.
type GenSpec struct {
	Seed          int64
	Blocks        int
	Iterations    int
	SitesPerBlock int
	MisFrac       float64
	LateFrac      float64
	LateIter      int
	DataBytes     int
}

// GenProgram is a generated program: a code image loaded at
// guest.CodeBase and a data image loaded at guest.DataBase.
type GenProgram struct {
	Spec  GenSpec
	Image []byte
	Data  []byte
	// Sites counts the memory sites by class.
	Aligned, Misaligned, Late int
}

// Load places the program in m and returns its entry PC.
func (p *GenProgram) Load(m *mem.Memory) uint32 {
	m.WriteBytes(guest.CodeBase, p.Image)
	m.WriteBytes(guest.DataBase, p.Data)
	return guest.CodeBase
}

// Budget bounds the guest instructions a reference interpretation of the
// program may take: the chain's instructions per iteration, with headroom.
func (p *GenProgram) Budget() uint64 {
	perBlock := uint64(4 + 2*p.Spec.SitesPerBlock + 4)
	return 2 * uint64(p.Spec.Iterations) * (uint64(p.Spec.Blocks)*perBlock + 16)
}

// Register roles in generated code: EBX is the aligned data base, EBP the
// late base (EBX until LateIter, EBX+1 after), EDI the iteration counter.
// EAX, EDX, ESI and ECX carry data; F0/F1 carry quadwords.
var dataRegs = [...]guest.Reg{guest.EAX, guest.EDX, guest.ESI, guest.ECX}

// Generate builds the program gs describes. The same GenSpec always
// yields byte-identical images.
func Generate(gs GenSpec) (*GenProgram, error) {
	if gs.Blocks < 1 || gs.Iterations < 1 || gs.SitesPerBlock < 1 || gs.DataBytes < 256 {
		return nil, fmt.Errorf("gen: degenerate spec %+v", gs)
	}
	rnd := rand.New(rand.NewSource(gs.Seed))
	p := &GenProgram{Spec: gs}
	b := guest.NewBuilder()

	b.MovImm(guest.EBX, guest.DataBase)
	b.MovImm(guest.EDI, 0)
	for _, r := range dataRegs {
		b.MovImm(r, rnd.Int31())
	}
	b.Label("outer")
	b.Mov(guest.EBP, guest.EBX)
	b.CmpImm(guest.EDI, int32(gs.LateIter))
	b.Jcc(guest.L, "early")
	b.ALUImm(guest.ADDri, guest.EBP, 1)
	b.Label("early")
	b.Call("b0")
	b.ALUImm(guest.ADDri, guest.EDI, 1)
	b.CmpImm(guest.EDI, int32(gs.Iterations))
	b.Jcc(guest.L, "outer")
	b.Halt()

	// Sites address 8-byte slots, so an aligned site of any width stays
	// aligned and a +1/+3/+5 displacement misaligns every width.
	slots := int32(gs.DataBytes/8 - 2)
	for i := 0; i < gs.Blocks; i++ {
		b.Label(fmt.Sprintf("b%d", i))
		for s := 0; s < gs.SitesPerBlock; s++ {
			disp := 8 * rnd.Int31n(slots)
			base := guest.EBX
			switch x := rnd.Float64(); {
			case x < gs.MisFrac:
				disp += 1 + 2*rnd.Int31n(3)
				p.Misaligned++
			case x < gs.MisFrac+gs.LateFrac:
				base = guest.EBP
				p.Late++
			default:
				p.Aligned++
			}
			m := guest.MemRef{Base: base, Disp: disp}
			r := dataRegs[rnd.Intn(len(dataRegs))]
			switch rnd.Intn(8) {
			case 0, 1, 2:
				b.Load(guest.LD4, r, m)
			case 3:
				b.Load(guest.LD2Z, r, m)
			case 4, 5:
				b.Store(guest.ST4, m, r)
			case 6:
				b.FLoad(guest.FReg(rnd.Intn(2)), m)
				b.FAdd(guest.F0, guest.F1)
			default:
				b.FStore(m, guest.FReg(rnd.Intn(2)))
			}
			mix := []guest.Op{guest.ADDrr, guest.XORrr, guest.SUBrr, guest.ORrr}
			b.ALU(mix[rnd.Intn(len(mix))], r, dataRegs[rnd.Intn(len(dataRegs))])
		}
		b.ALUImm(guest.IMULri, guest.EAX, 2*rnd.Int31n(1000)+1)
		next := "ret"
		if i+1 < gs.Blocks {
			next = fmt.Sprintf("b%d", i+1)
		}
		// Both edges reach the next block; the data-dependent condition
		// keeps the branch a real two-way exit for the translator.
		b.Test(guest.EAX, guest.EDX)
		b.Jcc(guest.E, next)
	}
	b.Label("ret")
	b.Ret()

	img, err := b.Build(guest.CodeBase)
	if err != nil {
		return nil, fmt.Errorf("gen: build: %w", err)
	}
	p.Image = img
	p.Data = make([]byte, gs.DataBytes)
	rnd.Read(p.Data)
	return p, nil
}
