package core

import (
	"mdabt/internal/guest"
	"mdabt/internal/mem"
)

// decEntry caches one decoded guest instruction together with a handle on
// its alignment profile. The entry holds no pointers — the profile lives in
// the cache's side table, named by index — so the decode arena is
// invisible to the garbage collector's mark phase however large it grows.
// The interpreter still updates a site's profile without a map lookup:
// the index is in hand with the decoded instruction.
type decEntry struct {
	inst guest.Inst
	len  uint8  // encoded length; 0 = not decoded yet
	prof uint32 // 1 + index into decodeCache.profs; 0 = not profiled yet
}

// Guest code is loaded contiguously at guest.CodeBase, so the decode cache
// is PC-indexed: a window of decDenseLimit bytes starting at the code base,
// with a map fallback for the rare instruction outside it (tests placing
// code elsewhere). One entry per byte address — the guest ISA is
// variable-length, so any byte can start an instruction.
//
// The window is paged: one decPage of entries per touched decPageSize-byte
// guest page, allocated on first touch, so a program pays for the code it
// runs rather than for the distance from the code base to its highest PC.
const (
	decDenseBase  = uint32(guest.CodeBase)
	decDenseLimit = uint32(4 << 20)
	decPageShift  = 12
	decPageSize   = 1 << decPageShift
	decPages      = decDenseLimit >> decPageShift
)

// decPage holds the entries of one guest code page.
type decPage [decPageSize]decEntry

// decPageSlot is one window page: its arena (retained across reset once
// allocated) and whether it holds entries of the current generation.
type decPageSlot struct {
	p     *decPage
	dirty bool
}

// decodeCache is a PC-indexed cache of decoded guest instructions. The zero
// value is ready to use. Entries stay valid until a guest store overlaps
// their encoded bytes (self-modifying code): the owner routes such stores
// through invalidateWrite, which drops every decode the write could have
// changed. Per-site profiles can also be reset individually (retranslation
// restarts profiling).
type decodeCache struct {
	pages   []decPageSlot // decPages slots, made on first use
	touched []uint32      // indices of the dirty pages, for reset
	hi      uint32        // window offset just past the highest dirty page
	far     map[uint32]*decEntry
	// profs is the profile side table; free lists the slots of dropped
	// profiles for reuse.
	profs []siteProfile
	free  []uint32
}

// reset empties the cache for a new program. Page arenas stay allocated and
// only the touched ones are cleared, so a reset cache re-running the same
// program allocates nothing.
func (c *decodeCache) reset() {
	for _, i := range c.touched {
		clear(c.pages[i].p[:])
		c.pages[i].dirty = false
	}
	c.touched = c.touched[:0]
	c.hi = 0
	clear(c.far)
	c.profs = c.profs[:0]
	c.free = c.free[:0]
}

// entry returns the cache slot for pc, allocating backing storage as needed.
func (c *decodeCache) entry(pc uint32) *decEntry {
	if off := pc - decDenseBase; off < decDenseLimit {
		if c.pages == nil {
			c.pages = make([]decPageSlot, decPages)
		}
		s := &c.pages[off>>decPageShift]
		if !s.dirty {
			if s.p == nil {
				s.p = new(decPage)
			}
			s.dirty = true
			c.touched = append(c.touched, off>>decPageShift)
			c.hi = max(c.hi, (off>>decPageShift+1)<<decPageShift)
		}
		return &s.p[off&(decPageSize-1)]
	}
	if c.far == nil {
		c.far = make(map[uint32]*decEntry)
	}
	de := c.far[pc]
	if de == nil {
		de = new(decEntry)
		c.far[pc] = de
	}
	return de
}

// peek returns the slot for pc without allocating, or nil if none exists.
func (c *decodeCache) peek(pc uint32) *decEntry {
	if off := pc - decDenseBase; off < decDenseLimit {
		if c.pages == nil {
			return nil
		}
		if s := &c.pages[off>>decPageShift]; s.dirty {
			return &s.p[off&(decPageSize-1)]
		}
		return nil
	}
	return c.far[pc]
}

// decoded returns the decoded instruction entry for pc, decoding from m on a
// cache miss. fresh reports a miss that actually decoded (the caller may
// want to watch the underlying code pages for self-modification).
func (c *decodeCache) decoded(pc uint32, m *mem.Memory) (de *decEntry, fresh bool, err error) {
	de = c.entry(pc)
	if de.len == 0 {
		var buf [guest.MaxInstLen]byte
		m.ReadBytes(uint64(pc), buf[:])
		inst, n, derr := guest.Decode(buf[:])
		if derr != nil {
			return nil, false, derr
		}
		de.inst, de.len = inst, uint8(n)
		fresh = true
	}
	return de, fresh, nil
}

// profile returns de's alignment profile, creating it on first use. The
// pointer is valid until the next profile creation.
func (c *decodeCache) profile(de *decEntry) *siteProfile {
	if de.prof == 0 {
		if n := len(c.free); n > 0 {
			de.prof = c.free[n-1]
			c.free = c.free[:n-1]
		} else {
			c.profs = append(c.profs, siteProfile{})
			de.prof = uint32(len(c.profs))
		}
	}
	return &c.profs[de.prof-1]
}

// dropProf releases de's profile slot for reuse.
func (c *decodeCache) dropProf(de *decEntry) {
	if de.prof != 0 {
		c.profs[de.prof-1] = siteProfile{}
		c.free = append(c.free, de.prof)
		de.prof = 0
	}
}

// invalidateWrite drops every cached decode a guest store to [addr,
// addr+size) could have changed: any entry whose encoded bytes overlap the
// write, i.e. entries starting as far back as MaxInstLen-1 bytes before it.
// Profiles go with the decode — the site is a different instruction now.
// It returns the number of entries dropped.
func (c *decodeCache) invalidateWrite(addr uint64, size int) int {
	n := 0
	lo := addr - (guest.MaxInstLen - 1)
	if addr < guest.MaxInstLen-1 {
		lo = 0
	}
	for a := lo; a < addr+uint64(size) && a <= 0xFFFF_FFFF; a++ {
		if de := c.peek(uint32(a)); de != nil && de.len != 0 {
			de.len = 0
			c.dropProf(de)
			n++
		}
	}
	return n
}

// mayContain reports whether any cached decode could overlap a write to
// [addr, addr+size) — a cheap bounds test that keeps invalidateWrite off
// the path of ordinary data stores.
func (c *decodeCache) mayContain(addr uint64, size int) bool {
	if len(c.far) > 0 {
		return true
	}
	lo := uint64(decDenseBase)
	hi := lo + uint64(c.hi)
	return addr+uint64(size) > lo && addr < hi+guest.MaxInstLen
}

// profAt returns the alignment profile recorded for pc, or nil if the site
// has never been profiled.
func (c *decodeCache) profAt(pc uint32) *siteProfile {
	if de := c.peek(pc); de != nil && de.prof != 0 {
		return &c.profs[de.prof-1]
	}
	return nil
}

// clearProf drops pc's alignment profile (block retranslation restarts
// profiling from scratch, §IV-C).
func (c *decodeCache) clearProf(pc uint32) {
	if de := c.peek(pc); de != nil {
		c.dropProf(de)
	}
}

// forEachProf calls fn for every site with a recorded alignment profile.
func (c *decodeCache) forEachProf(fn func(pc uint32, p *siteProfile)) {
	for _, i := range c.touched {
		pg := c.pages[i].p
		for j := range pg {
			if k := pg[j].prof; k != 0 {
				fn(decDenseBase+i<<decPageShift+uint32(j), &c.profs[k-1])
			}
		}
	}
	for pc, de := range c.far {
		if de.prof != 0 {
			fn(pc, &c.profs[de.prof-1])
		}
	}
}
