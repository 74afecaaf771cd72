package core

import (
	"testing"

	"mdabt/internal/guest"
	"mdabt/internal/mem"
)

// TestDecodeCacheDenseAndFar exercises both storage tiers of the PC-indexed
// decode cache: the paged window anchored at guest.CodeBase and the map
// fallback for out-of-window PCs.
func TestDecodeCacheDenseAndFar(t *testing.T) {
	m := mem.New()
	var b guest.Builder
	b.MovImm(guest.EAX, 7)
	b.Halt()
	img, err := b.Build(uint32(guest.CodeBase))
	if err != nil {
		t.Fatal(err)
	}
	farPC := decDenseBase + decDenseLimit + 0x100
	lastPC := decDenseBase + decDenseLimit - uint32(len(img)) // last window page
	m.WriteBytes(guest.CodeBase, img)
	m.WriteBytes(uint64(lastPC), img)
	m.WriteBytes(uint64(farPC), img)

	var c decodeCache
	densePC := uint32(guest.CodeBase)

	for _, pc := range []uint32{densePC, lastPC, farPC} {
		de, fresh, err := c.decoded(pc, m)
		if err != nil {
			t.Fatalf("decoded(%#x): %v", pc, err)
		}
		if de.inst.Op != guest.MOVri || de.len == 0 {
			t.Fatalf("decoded(%#x) = op %v len %d, want MOVri", pc, de.inst.Op, de.len)
		}
		if !fresh {
			t.Fatalf("decoded(%#x) not fresh on first lookup", pc)
		}
		// Repeat lookups must hand back the same slot (profiles attach to it).
		if again, fresh2, _ := c.decoded(pc, m); again != de || fresh2 {
			t.Fatalf("decoded(%#x) returned a different or fresh slot on repeat", pc)
		}
	}
	// The dense limit holds: the window has exactly decDenseLimit bytes of
	// page slots, and only the two touched pages hold an arena.
	if got := uint32(len(c.pages)) << decPageShift; got != decDenseLimit {
		t.Fatalf("page window spans %#x bytes, want the %#x limit", got, decDenseLimit)
	}
	if n := allocatedDecPages(&c); n != 2 {
		t.Fatalf("%d decode pages allocated, want 2 (code base and last window page)", n)
	}
	if c.far[farPC] == nil {
		t.Fatalf("far PC %#x not in the map tier", farPC)
	}

	// peek never allocates: an untouched PC inside the window on a page
	// never touched, and an untouched far PC, both report nil.
	if de := c.peek(densePC + decPageSize); de != nil {
		t.Fatal("peek of an untouched dense page allocated a slot")
	}
	if n := allocatedDecPages(&c); n != 2 {
		t.Fatalf("peek allocated a decode page: %d allocated, want 2", n)
	}
	if de := c.peek(farPC + 0x1000); de != nil {
		t.Fatal("peek of an unseen far PC allocated a slot")
	}

	// reset keeps the arenas but empties them: the old slots read as
	// untouched, and a re-decode reuses the same page.
	page := c.pages[0].p
	c.reset()
	if de := c.peek(densePC); de != nil {
		t.Fatal("peek after reset returned a slot of the previous generation")
	}
	if de, fresh, err := c.decoded(densePC, m); err != nil || !fresh || de != &page[0] {
		t.Fatalf("decoded after reset: fresh=%v err=%v, same page slot=%v", fresh, err, de == &page[0])
	}
}

// allocatedDecPages counts the decode cache's allocated page arenas.
func allocatedDecPages(c *decodeCache) int {
	n := 0
	for _, s := range c.pages {
		if s.p != nil {
			n++
		}
	}
	return n
}

// TestDecodeCacheResetReusesPages pins the serve-reuse guarantee at the
// engine level: a Reset followed by a re-run of the same program allocates
// no new decode pages — every page the re-run touches is an arena retained
// from the first run.
func TestDecodeCacheResetReusesPages(t *testing.T) {
	img := mdaLoopImg(t, 64)
	opt := DefaultOptions(DPEH)
	e := engineFor(t, img, opt)
	run := func() {
		t.Helper()
		mustRun(t, e)
	}
	run()
	before := map[*decPage]bool{}
	for _, s := range e.dec.pages {
		if s.p != nil {
			before[s.p] = true
		}
	}
	if len(before) == 0 {
		t.Fatal("first run allocated no decode pages")
	}
	e.Reset(opt)
	e.Mem.WriteBytes(guest.CodeBase, img)
	e.Mem.WriteBytes(guest.DataBase, patternData(256))
	run()
	for i, s := range e.dec.pages {
		if s.p != nil && !before[s.p] {
			t.Fatalf("re-run after Reset allocated a new decode page for window page %d", i)
		}
	}
	if len(e.dec.touched) != len(before) {
		t.Fatalf("re-run touched %d pages, first run %d", len(e.dec.touched), len(before))
	}
}

// TestDecodeCacheProfiles covers the per-site alignment profiles indexed
// from decode entries: lazy creation, profAt/clearProf, and forEachProf
// across both tiers.
func TestDecodeCacheProfiles(t *testing.T) {
	m := mem.New()
	var b guest.Builder
	b.MovImm(guest.EAX, 7)
	b.Halt()
	img, err := b.Build(uint32(guest.CodeBase))
	if err != nil {
		t.Fatal(err)
	}
	densePC := uint32(guest.CodeBase)
	farPC := decDenseBase + decDenseLimit + 0x40
	m.WriteBytes(guest.CodeBase, img)
	m.WriteBytes(uint64(farPC), img)

	var c decodeCache
	for _, pc := range []uint32{densePC, farPC} {
		if got := c.profAt(pc); got != nil {
			t.Fatalf("profAt(%#x) = %p before any profiling", pc, got)
		}
		de, _, err := c.decoded(pc, m)
		if err != nil {
			t.Fatal(err)
		}
		p := c.profile(de)
		if p == nil || c.profile(de) != p {
			t.Fatalf("profile() for %#x not stable", pc)
		}
		p.mda = 5
		if got := c.profAt(pc); got != p {
			t.Fatalf("profAt(%#x) = %p, want %p", pc, got, p)
		}
	}

	seen := map[uint32]bool{}
	c.forEachProf(func(pc uint32, p *siteProfile) {
		if p.mda != 5 {
			t.Errorf("forEachProf(%#x): mda = %d, want 5", pc, p.mda)
		}
		seen[pc] = true
	})
	if !seen[densePC] || !seen[farPC] {
		t.Fatalf("forEachProf visited %v, want both %#x and %#x", seen, densePC, farPC)
	}

	// Retranslation resets a site's profile without touching the decode.
	c.clearProf(densePC)
	if got := c.profAt(densePC); got != nil {
		t.Fatalf("profAt after clearProf = %p, want nil", got)
	}
	de := c.peek(densePC)
	if de == nil || de.len == 0 {
		t.Fatal("clearProf dropped the decoded instruction")
	}
	// Profiling restarts from zero in the dropped profile's recycled slot.
	n := len(c.profs)
	if p := c.profile(de); p.mda != 0 || p.aligned != 0 || len(c.profs) != n {
		t.Fatalf("re-created profile = %+v with %d slots, want zero counts in one of %d recycled slots", *p, len(c.profs), n)
	}
}
