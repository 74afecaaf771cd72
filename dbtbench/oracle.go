package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"mdabt/internal/core"
	"mdabt/internal/guest"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
)

// hashWindow is the guest data range the oracle compares: every non-zero
// page of it, by index and content.
const hashWindow = 4 << 20

// dataHash digests the data region of m. Untouched and all-zero pages hash
// alike, so the digest does not depend on which pages a run materialized.
func dataHash(m *mem.Memory) string {
	h := sha256.New()
	var zero [mem.PageSize]byte
	for off := uint64(0); off < hashWindow; off += mem.PageSize {
		pg := m.PeekPage(guest.DataBase + off)
		if pg == nil || *pg == zero {
			continue
		}
		fmt.Fprintf(h, "%x:", off)
		h.Write(pg[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// Reference is the reference interpreter's outcome for one program and
// input: the architectural registers and the data region digest. Flags
// and EIP are not compared: the translator materializes flags lazily, as
// the repository's co-simulation tests also assume.
type Reference struct {
	R    [guest.NumRegs]uint32
	F    [guest.NumFRegs]uint64
	Data string
}

// reference runs core.RunCensus over a memory that load populates.
func reference(load func(*mem.Memory) uint32, budget uint64) (Reference, *core.Census, error) {
	m := mem.New()
	entry := load(m)
	c, err := core.RunCensus(m, entry, budget)
	if err != nil {
		return Reference{}, nil, fmt.Errorf("reference: %w", err)
	}
	if !c.Halted {
		return Reference{}, nil, fmt.Errorf("reference: no halt within %d instructions", budget)
	}
	return Reference{R: c.FinalCPU.R, F: c.FinalCPU.F, Data: dataHash(m)}, c, nil
}

// Sim is the simulated outcome an op must reproduce exactly.
type Sim struct {
	Cycles uint64 `json:"cycles"`
	Insts  uint64 `json:"host_insts"`
	Traps  uint64 `json:"misalign_traps"`
}

func simOf(c machine.Counters) Sim {
	return Sim{Cycles: c.Cycles, Insts: c.Insts, Traps: c.MisalignTraps}
}

// Expected maps "<workload>/<program>/<mechanism>" to the simulated
// outcome recorded in expected.json.
type Expected map[string]Sim

const expectedFile = "dbtbench/expected.json"

func loadExpected() (Expected, error) {
	b, err := os.ReadFile(expectedFile)
	if err != nil {
		return nil, fmt.Errorf("expected file: %w", err)
	}
	var e Expected
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("expected file: %w", err)
	}
	return e, nil
}

// writeExpected stores e with sorted keys, one entry a line.
func writeExpected(e Expected) error {
	keys := sortedKeys(e)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, k := range keys {
		v, err := json.Marshal(e[k])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %q: %s%s\n", k, v, sep)
	}
	b.WriteString("}\n")
	return os.WriteFile(expectedFile, b.Bytes(), 0o644)
}

// checker validates op outcomes against the reference interpreter and the
// expected file. In record mode it fills the expected file instead.
type checker struct {
	want   Expected
	record bool
}

// check returns nil when the engine's final state matches ref and its
// simulated counters match the expected entry for key.
func (c *checker) check(key string, ref Reference, cpu guest.CPU, m *mem.Memory, got Sim) error {
	if cpu.R != ref.R || cpu.F != ref.F {
		return fmt.Errorf("%s: final registers differ from the reference interpreter", key)
	}
	if h := dataHash(m); h != ref.Data {
		return fmt.Errorf("%s: data region %s, reference %s", key, h, ref.Data)
	}
	if c.record {
		if prev, ok := c.want[key]; ok && prev != got {
			return fmt.Errorf("%s: nondeterministic counters %+v then %+v", key, prev, got)
		}
		c.want[key] = got
		return nil
	}
	want, ok := c.want[key]
	if !ok {
		return fmt.Errorf("%s: no entry in %s", key, expectedFile)
	}
	if got != want {
		return fmt.Errorf("%s: simulated %+v, expected %+v", key, got, want)
	}
	return nil
}
