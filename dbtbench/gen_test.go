package main

import (
	"bytes"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, spec := range []GenSpec{coldSpec(3), serveSpec(7)} {
		a, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Image, b.Image) || !bytes.Equal(a.Data, b.Data) {
			t.Fatalf("seed %d: two generations differ", spec.Seed)
		}
		spec.Seed++
		c, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.Image, c.Image) {
			t.Fatalf("seeds %d and %d give the same image", spec.Seed-1, spec.Seed)
		}
	}
}

// TestGeneratedProgramsHalt runs every program of both universes under the
// reference interpreter within its budget.
func TestGeneratedProgramsHalt(t *testing.T) {
	check := func(spec GenSpec) {
		p, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, c, err := reference(p.Load, p.Budget()); err != nil {
			t.Errorf("seed %d: %v", spec.Seed, err)
		} else if c.MDAs == 0 {
			t.Errorf("seed %d: no misaligned accesses", spec.Seed)
		}
	}
	n := coldUniverse
	if testing.Short() {
		n = 2
	}
	for id := 0; id < n; id++ {
		check(coldSpec(id))
	}
	for id := 0; id < serveUniverse; id++ {
		check(serveSpec(id))
	}
}

// TestGenKnobs checks the site mix follows the knobs, and that late sites
// are aligned until LateIter and misaligned after.
func TestGenKnobs(t *testing.T) {
	spec := GenSpec{Seed: 1, Blocks: 400, Iterations: 6, SitesPerBlock: 3,
		MisFrac: 0.2, LateFrac: 0.1, LateIter: 3, DataBytes: 4096}
	p, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	sites := float64(spec.Blocks * spec.SitesPerBlock)
	if f := float64(p.Misaligned) / sites; f < 0.15 || f > 0.25 {
		t.Errorf("misaligned share %.3f, want about %.2f", f, spec.MisFrac)
	}
	if f := float64(p.Late) / sites; f < 0.06 || f > 0.14 {
		t.Errorf("late share %.3f, want about %.2f", f, spec.LateFrac)
	}
	_, c, err := reference(p.Load, p.Budget())
	if err != nil {
		t.Fatal(err)
	}
	// Every memory access site executes once per iteration: misaligned
	// sites misalign every time, late sites from LateIter on.
	want := uint64(p.Misaligned*spec.Iterations + p.Late*(spec.Iterations-spec.LateIter))
	if c.MDAs != want {
		t.Errorf("MDAs %d, want %d", c.MDAs, want)
	}
	spec.LateFrac = 0
	spec.MisFrac = 0
	p, err = Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, c, err = reference(p.Load, p.Budget()); err != nil {
		t.Fatal(err)
	}
	if c.MDAs != 0 {
		t.Errorf("all-aligned program: %d MDAs", c.MDAs)
	}
}
