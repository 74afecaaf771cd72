// Package machine simulates the paper's evaluation hardware: a
// single-processor Alpha ES40 (paper §V-A). It executes host (Alpha-like)
// code from simulated memory with a cycle cost model, the ES40 cache
// hierarchy, precise misaligned-access traps that dispatch to a registered
// handler, and a code-patching interface with instruction-stream coherence
// (the decoded-instruction cache is invalidated when code is patched).
//
// The simulator is the substitution for real Alpha hardware (see DESIGN.md):
// every MDA handling mechanism's cost reduces to instructions executed,
// cache misses, and traps taken, all of which are charged explicitly here.
package machine

import (
	"fmt"

	"mdabt/internal/cache"
	"mdabt/internal/faultinject"
	"mdabt/internal/host"
	"mdabt/internal/mem"
)

// Params is the cycle cost model. Defaults (DefaultParams) are documented in
// DESIGN.md §5 and derive from the paper where it gives numbers: the
// misalignment trap cost of ~1000 cycles comes from §II (refs [15][16]).
type Params struct {
	// MisalignTrapCycles is charged for every misaligned-access trap before
	// the handler runs (kernel entry/exit, context save, dispatch).
	MisalignTrapCycles uint64
	// AccessFaultCycles is charged for every access-protection trap (page
	// protection violation, watched-page store, or trap-table guard hit)
	// before the access-fault handler runs. Same kernel round trip as a
	// misalignment trap.
	AccessFaultCycles uint64
	// LoadExtraCycles is the additional latency of a load beyond the base
	// cycle (in-order pipeline load-use approximation).
	LoadExtraCycles uint64
	// MulExtraCycles is the additional latency of integer multiply.
	MulExtraCycles uint64
	// TakenBranchCycles is the extra cost of a taken branch or jump
	// (fetch redirect).
	TakenBranchCycles uint64
	// BrkCycles is the cost of a BRKBT exit to the BT runtime (register
	// spill, dispatch into the monitor).
	BrkCycles uint64
	// UseCaches enables the ES40 cache hierarchy; when false every access
	// costs its base latency only (useful for unit tests).
	UseCaches bool
	// DualIssueALU models the EV6's multi-issue pipeline cheaply: an
	// ALU-class instruction (operate format, LDA, LDAH) can issue in the
	// same cycle as the preceding instruction when that instruction left an
	// issue slot open (memory and ALU instructions do; branches and BRKBT
	// do not). This matters to the paper's trade-off — on the 4-wide EV6
	// the 7–11 instruction MDA sequence costs far fewer than 7–11 cycles
	// because its EXT/INS/MSK arithmetic issues alongside the loads, while
	// a misalignment trap costs the full ~1000 cycles regardless.
	DualIssueALU bool
}

// DefaultParams returns the ES40-flavored cost model used by all
// experiments.
func DefaultParams() Params {
	return Params{
		MisalignTrapCycles: 1000,
		AccessFaultCycles:  1000,
		LoadExtraCycles:    2,
		MulExtraCycles:     7,
		TakenBranchCycles:  1,
		BrkCycles:          80,
		UseCaches:          true,
		DualIssueALU:       true,
	}
}

// Counters accumulates execution statistics.
type Counters struct {
	Cycles        uint64 // total cycles charged
	Insts         uint64 // host instructions retired
	Loads         uint64
	Stores        uint64
	MisalignTraps uint64 // misaligned-access traps taken
	AccessFaults  uint64 // access-protection traps taken
	Brks          uint64 // BRKBT exits to the runtime
	TrapCycles    uint64 // cycles spent in trap overhead + handlers
}

// StopReason reports why Run returned.
type StopReason int

// Stop reasons.
const (
	StopHalt  StopReason = iota // BRKBT with the Halt service
	StopBrk                     // BRKBT with any other service payload
	StopLimit                   // instruction budget exhausted
)

func (r StopReason) String() string {
	switch r {
	case StopHalt:
		return "halt"
	case StopBrk:
		return "brk"
	case StopLimit:
		return "limit"
	}
	return fmt.Sprintf("stop(%d)", int(r))
}

// HaltService is the BRKBT payload that halts the machine.
const HaltService = 0

// MisalignHandler is the registered misalignment trap handler. It runs after
// the architectural trap cost has been charged and must return the PC at
// which execution resumes. Returning the faulting PC re-executes the
// (possibly patched) instruction; the handler typically either emulates the
// access (OS-style fixup, see Machine.EmulateAccess) and resumes at pc+4, or
// patches code (BT-style, paper §IV) and resumes at pc.
type MisalignHandler func(m *Machine, pc uint64, inst host.Inst, ea uint64) (resume uint64)

// AccessFaultHandler is the registered handler for access-protection traps
// (mem.AccessTrap hits and injected spurious faults). It runs after the
// architectural trap cost has been charged and returns the resume PC. The
// trapped access has NOT been performed; a handler that decides the access
// is legal completes it itself (Machine.PerformAccess) and resumes at
// pc+4. The trap-bit table is a superset filter, so handlers must tolerate
// false positives.
type AccessFaultHandler func(m *Machine, pc uint64, inst host.Inst, ea uint64) (resume uint64)

// Machine is the simulated host processor plus memory system.
type Machine struct {
	Mem    *mem.Memory
	Params Params

	regs [host.NumRegs]uint64
	pc   uint64

	caches        *cache.Hierarchy
	handler       MisalignHandler
	accessHandler AccessFaultHandler
	// faults, when non-nil, injects trap-delivery anomalies: spurious
	// misalignment traps on aligned accesses and duplicate delivery of a
	// trap the handler already serviced. Both are safe against a correct
	// handler (MDA sequences are alignment-agnostic; trap servicing is
	// idempotent), which is exactly what the chaos tests assert.
	faults *faultinject.Plan

	counters Counters

	// Decoded-instruction cache: one entry per 64-byte I-line, lazily
	// filled. Patching code invalidates the affected line, which models the
	// I-stream coherence actions (imb) a real BT must perform.
	//
	// Lines are held in a dense window indexed by I-line offset from the
	// first line ever fetched — in practice the bottom of the translated
	// code cache, which is where all host execution lives — so the per-line
	// lookup on the fetch path is two array indexes, not a map probe. The
	// window is a directory of lineChunks, each made on first touch, so a
	// run pays for the code it executes (typically the bottom of the code
	// cache and the stub zone at its top), not for the distance between.
	// Lines themselves are carved from slabs. Lines below the anchor or
	// beyond the dense window (code placed far from the anchor by tests or
	// exotic layouts) fall back to a map.
	anchored  bool
	denseBase uint64       // line ID of the window's first line; valid once anchored
	dense     []*lineChunk // maxDenseLines/lineChunkLines slots, made on first use
	lineSlab  []iline      // unused lines of the current slab
	farLines  map[uint64]*iline
	curLine   *iline
	curLineID uint64
	slotOpen  bool // an issue slot is open for an ALU-class instruction

	// Trace tier (see trace.go). traces is the PC lookup table over every
	// step of every live trace; nil means the tier is disabled. traceLo/
	// traceHi bound the covered address range so the generic loop's
	// redirect probe is a subtraction, not a map probe, when off-range.
	traces    map[uint64]traceEntry
	traceList map[uint64]*trace
	traceLo   uint64
	traceHi   uint64
	traceSeq  uint64
	traceVer  uint64 // bumped on build/flush; versions negative link caches
	tstats    TraceStats
	traceZero uint64 // pinned source for R31 reads in trace steps
	traceSink uint64 // discard target for R31 writes in trace steps
	// traceStall is set when the trace executor stops at a super-step
	// head because the remaining budget cannot fit its atomic retire;
	// runTraced consumes it and burns the tail generically, instruction
	// by instruction, exactly as an untraced run would.
	traceStall bool
}

const (
	ilineShift = 6
	ilineInsts = (1 << ilineShift) / host.InstBytes
	// maxDenseLines bounds the dense decode window (64 MiB of code).
	maxDenseLines = (64 << 20) >> ilineShift
	// lineChunkShift sets the window's chunk size: 1024 lines, 64 KiB of
	// code per chunk.
	lineChunkShift = 10
	lineChunkLines = 1 << lineChunkShift
	// lineSlabLen is the number of lines allocated together.
	lineSlabLen = 64
)

type iline struct {
	valid [ilineInsts]bool
	inst  [ilineInsts]host.Inst
}

// lineChunk is one directory slot's worth of the dense line window.
type lineChunk [lineChunkLines]*iline

// New creates a machine over m with cost model p.
func New(m *mem.Memory, p Params) *Machine {
	mc := &Machine{
		Mem:    m,
		Params: p,
	}
	if p.UseCaches {
		mc.caches = cache.NewES40()
	}
	return mc
}

// Caches exposes the cache hierarchy (nil when disabled).
func (m *Machine) Caches() *cache.Hierarchy { return m.caches }

// Reset restores the machine to its just-built state — registers, PC,
// counters, issue-slot state, the decoded-instruction cache (window
// re-anchors on the next fetch), and the cache hierarchy — while keeping
// the allocated decode-cache arena for reuse. The registered misalignment
// handler is preserved; the fault plan is cleared (its owner re-installs
// one per run). A reset machine behaves bit-identically to a fresh one.
func (m *Machine) Reset() {
	m.regs = [host.NumRegs]uint64{}
	m.pc = 0
	m.counters = Counters{}
	m.faults = nil
	m.anchored = false
	m.denseBase = 0
	m.dropLines()
	m.curLine, m.curLineID = nil, 0
	m.slotOpen = false
	m.clearTraceState()
	if m.caches != nil {
		m.caches.Reset()
	}
}

// Counters returns a copy of the accumulated counters.
func (m *Machine) Counters() Counters { return m.counters }

// AddCycles charges extra cycles (used by the BT runtime to model
// interpreter, translator, and handler work happening "on this CPU").
func (m *Machine) AddCycles(n uint64) { m.counters.Cycles += n }

// AddTrapCycles charges handler work and also attributes it to trap time.
func (m *Machine) AddTrapCycles(n uint64) {
	m.counters.Cycles += n
	m.counters.TrapCycles += n
}

// PC returns the current program counter.
func (m *Machine) PC() uint64 { return m.pc }

// SetPC sets the program counter. The PC must be instruction-aligned.
func (m *Machine) SetPC(pc uint64) {
	if pc%host.InstBytes != 0 {
		panic(fmt.Sprintf("machine: SetPC(%#x): misaligned", pc))
	}
	m.pc = pc
}

// Reg reads register r (R31 reads as zero).
func (m *Machine) Reg(r host.Reg) uint64 {
	if r == host.Zero {
		return 0
	}
	return m.regs[r]
}

// SetReg writes register r (writes to R31 are discarded).
func (m *Machine) SetReg(r host.Reg, v uint64) {
	if r != host.Zero {
		m.regs[r] = v
	}
}

// SetMisalignHandler registers the misalignment trap handler. A nil handler
// restores the default OS-style behaviour: emulate the access and continue.
func (m *Machine) SetMisalignHandler(h MisalignHandler) { m.handler = h }

// SetAccessFaultHandler registers the access-protection trap handler. A
// nil handler restores the default behaviour: perform the access raw and
// continue (no one owns the protections).
func (m *Machine) SetAccessFaultHandler(h AccessFaultHandler) { m.accessHandler = h }

// SetFaultPlan installs a fault-injection plan for trap delivery. A nil
// plan (the default) disables injection.
func (m *Machine) SetFaultPlan(p *faultinject.Plan) { m.faults = p }

// WriteCode copies host code into memory at addr and invalidates any decoded
// instructions it covers. addr must be instruction-aligned.
func (m *Machine) WriteCode(addr uint64, words []uint32) {
	if addr%host.InstBytes != 0 {
		panic(fmt.Sprintf("machine: WriteCode(%#x): misaligned", addr))
	}
	for i, w := range words {
		m.Mem.Write32(addr+uint64(i)*host.InstBytes, w)
	}
	m.invalidate(addr, uint64(len(words))*host.InstBytes)
}

// Patch overwrites the single instruction word at addr and invalidates its
// decoded line. This is the primitive the BT exception handler uses to
// replace a faulting memory operation with a branch (paper Fig. 5).
func (m *Machine) Patch(addr uint64, word uint32) {
	m.WriteCode(addr, []uint32{word})
}

// IMB discards all decoded instructions (Alpha's instruction memory
// barrier). WriteCode/Patch already invalidate precisely; IMB exists for
// bulk invalidation such as a code cache flush.
func (m *Machine) IMB() {
	m.dropLines()
	m.curLine, m.curLineID = nil, 0
	m.dropAllTraces()
}

// dropLines drops every decoded line, keeping the window's chunks.
func (m *Machine) dropLines() {
	for _, c := range m.dense {
		if c != nil {
			clear(c[:])
		}
	}
	clear(m.farLines)
}

func (m *Machine) invalidate(addr, size uint64) {
	m.invalidateTraces(addr, size)
	first := addr >> ilineShift
	last := (addr + size - 1) >> ilineShift
	for l := first; l <= last; l++ {
		if off := l - m.denseBase; m.anchored && off < maxDenseLines {
			if c := m.dense[off>>lineChunkShift]; c != nil {
				c[off&(lineChunkLines-1)] = nil
			}
		} else if m.farLines != nil {
			delete(m.farLines, l)
		}
		if l == m.curLineID {
			m.curLine = nil
		}
	}
}

// line returns the (possibly empty) decoded line for lineID, anchoring the
// dense window at the first line ever requested.
func (m *Machine) line(lineID uint64) *iline {
	if !m.anchored {
		m.anchored = true
		m.denseBase = lineID
	}
	if off := lineID - m.denseBase; off < maxDenseLines {
		if m.dense == nil {
			m.dense = make([]*lineChunk, maxDenseLines/lineChunkLines)
		}
		c := m.dense[off>>lineChunkShift]
		if c == nil {
			c = new(lineChunk)
			m.dense[off>>lineChunkShift] = c
		}
		l := c[off&(lineChunkLines-1)]
		if l == nil {
			l = m.newLine()
			c[off&(lineChunkLines-1)] = l
		}
		return l
	}
	if m.farLines == nil {
		m.farLines = make(map[uint64]*iline)
	}
	l := m.farLines[lineID]
	if l == nil {
		l = m.newLine()
		m.farLines[lineID] = l
	}
	return l
}

// newLine returns an empty line carved from the current slab. Dropped
// lines are never recycled into a slab (see fetch), so a slab lives as
// long as any of its lines is still cached or held.
func (m *Machine) newLine() *iline {
	if len(m.lineSlab) == 0 {
		m.lineSlab = make([]iline, lineSlabLen)
	}
	l := &m.lineSlab[0]
	m.lineSlab = m.lineSlab[1:]
	return l
}

// fetch returns the decoded instruction at pc, charging I-cache latency on
// line crossings. The returned pointer aliases the decode cache; it stays
// valid across invalidation (lines are dropped, never reused) but callers
// must not hold it across a fetch of different code.
func (m *Machine) fetch(pc uint64) (*host.Inst, error) {
	lineID := pc >> ilineShift
	line := m.curLine
	if line == nil || lineID != m.curLineID {
		line = m.line(lineID)
		m.curLine, m.curLineID = line, lineID
		if m.caches != nil {
			m.counters.Cycles += uint64(m.caches.Fetch(pc))
		}
	}
	slot := pc >> 2 & (ilineInsts - 1)
	if !line.valid[slot] {
		inst, err := host.Decode(m.Mem.Read32(pc))
		if err != nil {
			return nil, fmt.Errorf("machine: fetch at %#x: %w", pc, err)
		}
		line.inst[slot] = inst
		line.valid[slot] = true
	}
	return &line.inst[slot], nil
}

// EmulateAccess performs inst's memory access at ea in software, ignoring
// alignment. Loads deposit into inst.Ra with the op's extension semantics;
// stores write inst.Ra's low bytes. This is what the OS-style fixup handler
// and the BT's first-trap handling use.
func (m *Machine) EmulateAccess(inst host.Inst, ea uint64) {
	size := inst.Op.MemSize()
	if inst.Op.IsStore() {
		m.Mem.Write(ea, m.Reg(inst.Ra), size)
		return
	}
	v := m.Mem.Read(ea, size)
	if inst.Op == host.LDL {
		v = uint64(int64(int32(v)))
	}
	m.SetReg(inst.Ra, v)
}

// Run executes until a BRKBT, the instruction budget is exhausted, or an
// execution error (undecodable instruction) occurs. On StopBrk/StopHalt the
// PC is left at the instruction after the BRKBT and the payload is returned.
//
// With the trace tier enabled (EnableTraces + at least one BuildTrace) Run
// drives execution through runTraced, which interleaves the pre-resolved
// trace executor with generic segments. A machine with a fault-injection
// plan installed always takes the generic loop so the injection stream is
// identical with and without traces.
func (m *Machine) Run(maxInsts uint64) (StopReason, uint32, error) {
	if m.traces == nil || m.faults != nil {
		stop, payload, err, _ := m.runLoop(maxInsts, false)
		return stop, payload, err
	}
	return m.runTraced(maxInsts)
}

// runLoop is the generic execution loop. With exitOnTrace set it returns
// redirected=true (state fully synced, PC at the target) whenever a taken
// branch or jump lands on a PC covered by a live trace, so runTraced can
// switch to the trace executor. The probe is placed only on the taken-
// branch and jump paths: executing traced PCs generically is bit-identical
// anyway, so straight-line entry into a trace region is simply picked up
// at the next control transfer (or never — harmlessly).
func (m *Machine) runLoop(maxInsts uint64, exitOnTrace bool) (_ StopReason, _ uint32, _ error, redirected bool) {
	p := &m.Params
	tlo, tspan := m.traceLo, m.traceHi-m.traceLo
	// The hottest loop in the simulator: the PC, current decoded I-line,
	// issue-slot state, and the two per-instruction counters live in locals
	// so each iteration runs out of registers instead of reloading Machine
	// fields. They are written back (and re-read) at every point where other
	// code can observe or change them: fetch misses, misalignment traps (the
	// handler may patch code and charge cycles), and every return.
	pc := m.pc
	curLine, curLineID := m.curLine, m.curLineID
	insts, cycles := m.counters.Insts, m.counters.Cycles
	slotOpen := m.slotOpen
	for n := uint64(0); n < maxInsts; n++ {
		// Fetch, with the straight-line case — same decoded I-line, slot
		// already decoded — inlined so the per-instruction path does not pay
		// a call. Line crossings and decode misses go through fetch.
		var inst *host.Inst
		if curLine != nil && pc>>ilineShift == curLineID {
			if slot := pc >> 2 & (ilineInsts - 1); curLine.valid[slot] {
				inst = &curLine.inst[slot]
			}
		}
		if inst == nil {
			m.counters.Cycles = cycles // fetch charges I-cache latency
			var err error
			inst, err = m.fetch(pc)
			cycles = m.counters.Cycles
			curLine, curLineID = m.curLine, m.curLineID
			if err != nil {
				m.pc = pc
				m.counters.Insts = insts
				m.slotOpen = slotOpen
				return StopLimit, 0, err, false
			}
		}
		insts++
		cycles++
		nextPC := pc + host.InstBytes

		format := host.FormatOf(inst.Op)
		switch format {
		case host.FormatPAL:
			m.counters.Brks++
			m.pc = nextPC
			m.curLine, m.curLineID = curLine, curLineID
			m.counters.Insts, m.counters.Cycles = insts, cycles+p.BrkCycles
			m.slotOpen = false
			if inst.Payload == HaltService {
				return StopHalt, inst.Payload, nil, false
			}
			return StopBrk, inst.Payload, nil, false

		case host.FormatMem:
			ea := m.Reg(inst.Rb) + uint64(int64(inst.Disp))
			switch inst.Op {
			case host.LDA, host.LDAH:
				if inst.Op == host.LDA {
					m.SetReg(inst.Ra, ea)
				} else {
					m.SetReg(inst.Ra, m.Reg(inst.Rb)+uint64(int64(inst.Disp))<<16)
				}
				if p.DualIssueALU {
					if slotOpen {
						cycles--
						slotOpen = false
					} else {
						slotOpen = true
					}
				}
			default:
				slotOpen = true // a memory op leaves an ALU slot open
				size := inst.Op.MemSize()
				// The short-circuit keeps the injection stream untouched by
				// genuinely misaligned accesses: only aligned ones can draw a
				// spurious trap.
				if inst.Op.Aligns() && (ea&uint64(size-1) != 0 ||
					(m.faults != nil && m.faults.Should(faultinject.SpuriousTrap))) {
					m.pc = pc
					m.counters.Insts, m.counters.Cycles = insts, cycles
					m.slotOpen = slotOpen
					m.misalignTrap(*inst, ea)
					// The handler may have patched code and charged cycles.
					pc = m.pc
					insts, cycles = m.counters.Insts, m.counters.Cycles
					curLine, curLineID = m.curLine, m.curLineID
					continue // handler set the resume PC
				}
				access := ea
				if inst.Op == host.LDQU || inst.Op == host.STQU {
					access = ea &^ 7
				}
				isStore := inst.Op.IsStore()
				// Access-protection trap: the dense trap-bit table filters
				// protected, watched, and guard pages; the real check runs
				// first so genuinely trapping accesses never consult the
				// injection stream.
				if m.Mem.AccessTrap(access, size, isStore) ||
					(m.faults != nil && m.faults.Should(faultinject.SpuriousAccessFault)) {
					m.pc = pc
					m.counters.Insts, m.counters.Cycles = insts, cycles
					m.slotOpen = slotOpen
					m.accessTrap(*inst, ea)
					// The handler may have redirected the PC and charged cycles.
					pc = m.pc
					insts, cycles = m.counters.Insts, m.counters.Cycles
					curLine, curLineID = m.curLine, m.curLineID
					continue
				}
				if isStore {
					m.counters.Stores++
					m.Mem.Write(access, m.Reg(inst.Ra), size)
				} else {
					m.counters.Loads++
					cycles += p.LoadExtraCycles
					v := m.Mem.Read(access, size)
					if inst.Op == host.LDL {
						v = uint64(int64(int32(v)))
					}
					m.SetReg(inst.Ra, v)
				}
				if m.caches != nil {
					cycles += uint64(m.caches.Data(access))
				}
			}
			pc = nextPC

		case host.FormatOpr:
			bv := m.Reg(inst.Rb)
			if inst.IsLit {
				bv = uint64(inst.Lit)
			}
			m.SetReg(inst.Rc, host.EvalOp(inst.Op, m.Reg(inst.Ra), bv))
			if inst.Op == host.MULL || inst.Op == host.MULQ {
				cycles += p.MulExtraCycles
				slotOpen = false
			} else if p.DualIssueALU {
				if slotOpen {
					cycles-- // issued alongside the previous instruction
					slotOpen = false
				} else {
					slotOpen = true
				}
			}
			pc = nextPC

		case host.FormatBra:
			// An unconditional BR with no link register is a pure fetch
			// redirect; the EV6 front end folds it (it can also dual-issue).
			uncond := inst.Op == host.BR && inst.Ra == host.Zero
			if uncond && p.DualIssueALU {
				if slotOpen {
					cycles--
					slotOpen = false
				} else {
					slotOpen = true
				}
			} else {
				slotOpen = false
			}
			if host.BranchTaken(inst.Op, m.Reg(inst.Ra)) {
				if inst.Op == host.BR || inst.Op == host.BSR {
					m.SetReg(inst.Ra, nextPC)
				}
				pc = inst.BranchTarget(pc)
				if !uncond {
					cycles += p.TakenBranchCycles
				}
				if exitOnTrace && pc-tlo < tspan {
					if _, ok := m.traces[pc]; ok {
						m.pc = pc
						m.curLine, m.curLineID = curLine, curLineID
						m.counters.Insts, m.counters.Cycles = insts, cycles
						m.slotOpen = slotOpen
						return StopLimit, 0, nil, true
					}
				}
			} else {
				pc = nextPC
			}

		case host.FormatJmp:
			slotOpen = false
			target := m.Reg(inst.Rb) &^ 3
			m.SetReg(inst.Ra, nextPC)
			pc = target
			cycles += p.TakenBranchCycles
			if exitOnTrace && pc-tlo < tspan {
				if _, ok := m.traces[pc]; ok {
					m.pc = pc
					m.curLine, m.curLineID = curLine, curLineID
					m.counters.Insts, m.counters.Cycles = insts, cycles
					m.slotOpen = slotOpen
					return StopLimit, 0, nil, true
				}
			}
		}
	}
	m.pc = pc
	m.curLine, m.curLineID = curLine, curLineID
	m.counters.Insts, m.counters.Cycles = insts, cycles
	m.slotOpen = slotOpen
	return StopLimit, 0, nil, false
}

// misalignTrap charges the trap cost and dispatches to the handler. With a
// fault plan installed the serviced trap may be delivered again (duplicate
// delivery): the full trap cost recharges and the handler reruns on the
// original faulting PC — trap servicing must be, and is, idempotent.
func (m *Machine) misalignTrap(inst host.Inst, ea uint64) {
	pc := m.pc
	for {
		m.counters.MisalignTraps++
		m.counters.Cycles += m.Params.MisalignTrapCycles
		m.counters.TrapCycles += m.Params.MisalignTrapCycles
		if m.handler != nil {
			m.pc = m.handler(m, pc, inst, ea)
			if m.pc%host.InstBytes != 0 {
				panic(fmt.Sprintf("machine: misalign handler returned misaligned pc %#x", m.pc))
			}
		} else {
			// Default OS behaviour: fix up the access in software and continue.
			m.EmulateAccess(inst, ea)
			m.pc = pc + host.InstBytes
		}
		if !m.faults.Should(faultinject.DuplicateTrap) {
			return
		}
	}
}

// accessTrap charges the access-fault trap cost and dispatches to the
// access-fault handler. Unlike misalignTrap there is no duplicate
// redelivery: the handler does not complete the access in place, so a
// replay would observe post-handler state.
func (m *Machine) accessTrap(inst host.Inst, ea uint64) {
	pc := m.pc
	m.counters.AccessFaults++
	m.counters.Cycles += m.Params.AccessFaultCycles
	m.counters.TrapCycles += m.Params.AccessFaultCycles
	if m.accessHandler != nil {
		m.pc = m.accessHandler(m, pc, inst, ea)
		if m.pc%host.InstBytes != 0 {
			panic(fmt.Sprintf("machine: access-fault handler returned misaligned pc %#x", m.pc))
		}
		return
	}
	// Default: nobody owns the protections (bare machine, or a spurious
	// injection with no BT attached) — complete the access and continue.
	m.PerformAccess(inst, ea)
	m.pc = pc + host.InstBytes
}

// PerformAccess executes inst's memory access at ea exactly as the Run
// loop would — including the quadword masking of LDQU/STQU and the LDL
// sign extension — charging the load/store counter but no cycles. The BT's
// access-fault handler uses it to complete an access the trap-bit table
// flagged as a false positive.
func (m *Machine) PerformAccess(inst host.Inst, ea uint64) {
	access := ea
	if inst.Op == host.LDQU || inst.Op == host.STQU {
		access = ea &^ 7
	}
	size := inst.Op.MemSize()
	if inst.Op.IsStore() {
		m.counters.Stores++
		m.Mem.Write(access, m.Reg(inst.Ra), size)
		return
	}
	m.counters.Loads++
	v := m.Mem.Read(access, size)
	if inst.Op == host.LDL {
		v = uint64(int64(int32(v)))
	}
	m.SetReg(inst.Ra, v)
}
