package main

import (
	"fmt"
	"math/rand"
	"time"

	"mdabt/internal/core"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
)

// Generated programs come from a fixed universe of generator seeds, so
// expected.json can pin the simulated outcome of every program a run may
// draw; --seed picks which programs run and in what order.
const (
	coldUniverse = 32
	coldPrograms = 8
	coldBudget   = 2_000_000_000
)

// coldSpec is the cold-start program shape: ~2000 blocks run 20 times,
// ~12% of sites misaligned from the start and ~8% turning misaligned at
// iteration 14, past DPEH's 10-execution profiling window.
func coldSpec(id int) GenSpec {
	return GenSpec{Seed: int64(1000 + id), Blocks: 2000, Iterations: 20, SitesPerBlock: 3,
		MisFrac: 0.12, LateFrac: 0.08, LateIter: 14, DataBytes: 64 << 10}
}

// coldMechs alternate op by op: the dbtrun default and DPEH.
var coldMechs = []core.Mechanism{core.ExceptionHandling, core.DPEH}

type genInput struct {
	id   int
	prog *GenProgram
	ref  Reference
}

// setupGenInputs draws n distinct program ids from a universe of size u,
// generates them with spec, and runs the reference interpreter over each.
func setupGenInputs(e *env, rnd *rand.Rand, u, n int, spec func(int) GenSpec) ([]*genInput, error) {
	if e.drawAll {
		n = u
	}
	var out []*genInput
	for _, id := range rnd.Perm(u)[:n] {
		p, err := Generate(spec(id))
		if err != nil {
			return nil, err
		}
		sid := e.rec.Begin("core.census")
		ref, _, err := reference(p.Load, p.Budget())
		e.rec.End(sid)
		if err != nil {
			return nil, fmt.Errorf("program %d: %w", id, err)
		}
		out = append(out, &genInput{id: id, prog: p, ref: ref})
	}
	return out, nil
}

// coldStart runs one generated program on a fresh engine per op, as a
// dbtrun invocation does. A round runs every drawn program under both
// mechanisms, mechanisms alternating op by op.
type coldStart struct {
	env    *env
	inputs []*genInput
}

func setupCold(e *env) (bench, error) {
	rnd := rand.New(rand.NewSource(e.seed))
	in, err := setupGenInputs(e, rnd, coldUniverse, coldPrograms, coldSpec)
	if err != nil {
		return nil, fmt.Errorf("cold-start: %w", err)
	}
	return &coldStart{env: e, inputs: in}, nil
}

func (w *coldStart) roundLen() int { return len(w.inputs) * len(coldMechs) }

func (w *coldStart) op(i int) opOut {
	i %= w.roundLen()
	in, mech := w.inputs[i/len(coldMechs)], coldMechs[i%len(coldMechs)]
	rec := w.env.rec
	key := fmt.Sprintf("cold-start/%d/%v", in.id, mech)

	t0 := time.Now()
	sid := rec.Begin("mem.load")
	m := mem.New()
	entry := in.prog.Load(m)
	rec.End(sid)
	sid = rec.Begin("core.new_engine")
	mach := machine.New(m, machine.DefaultParams())
	eng := core.NewEngine(m, mach, core.DefaultOptions(mech))
	rec.End(sid)
	sid = rec.Begin("core.run")
	err := eng.Run(entry, coldBudget)
	rec.End(sid)
	lat := time.Since(t0)
	if err != nil {
		return opOut{lat: lat, fail: fmt.Errorf("%s: %w", key, err)}
	}
	out := engineOut(eng, mach, w.env.tally)
	out.lat = lat
	w.env.low("translations_per_op", float64(eng.Stats().BlocksTranslated))
	sid = rec.Begin("oracle.check")
	out.fail = w.env.check.check(key, in.ref, eng.FinalCPU(), m, out.sim)
	rec.End(sid)
	return out
}

func (w *coldStart) close() error { return nil }
