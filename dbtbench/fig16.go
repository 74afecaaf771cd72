package main

import (
	"fmt"
	"math/rand"
	"time"

	"mdabt/internal/core"
	"mdabt/internal/experiments"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/policy"
	"mdabt/internal/workload"
)

// The BenchmarkFigure16 scale: MDA targets divided by 40, at least 800
// loop iterations per program.
const (
	fig16Shrink    = 40
	fig16IterFloor = 800
	fig16Budget    = 2_000_000_000
	// fig16CensusBudget bounds each reference interpretation, as
	// experiments.Session.Census does.
	fig16CensusBudget = 300_000_000
)

// fig16Mechs are the Figure 16 mechanisms the workload runs; exception
// handling is their common normalizer and runs in cold-start instead.
var fig16Mechs = []string{"DPEH", "Direct", "DynamicProfiling", "StaticProfiling"}

type fig16Prog struct {
	name  string
	prog  *workload.Program
	ref   Reference
	sites map[uint32]bool // train-input census MDA sites
}

type fig16Pair struct {
	prog *fig16Prog
	mech string
	opt  core.Options
}

// fig16Hot runs every (selected SPEC model, Figure 16 mechanism) pair on a
// fresh engine and lints it, as experiments.Session.Run does. A round is
// one pass over all pairs in a seeded order.
type fig16Hot struct {
	env   *env
	pairs []fig16Pair
	order []int
}

func setupFig16(e *env) (bench, error) {
	rnd := rand.New(rand.NewSource(e.seed))
	var progs []*fig16Prog
	for _, sp := range workload.SelectedSpecs() {
		sp.IterFloor = fig16IterFloor
		sp.PaperMDAs /= fig16Shrink
		p, err := workload.Generate(sp)
		if err != nil {
			return nil, fmt.Errorf("fig16: generate %s: %w", sp.Name, err)
		}
		fp := &fig16Prog{name: sp.Name, prog: p}
		// The ref and train censuses are independent: set-up runs them on
		// both CPUs.
		sid := e.rec.Begin("core.census")
		var ref Reference
		var refErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			ref, _, refErr = reference(func(m *mem.Memory) uint32 { p.Load(m, workload.Ref); return p.Entry() }, fig16CensusBudget)
		}()
		_, train, err := reference(func(m *mem.Memory) uint32 { p.Load(m, workload.Train); return p.Entry() }, fig16CensusBudget)
		<-done
		e.rec.End(sid)
		if refErr != nil {
			return nil, fmt.Errorf("fig16: %s: %w", sp.Name, refErr)
		}
		if err != nil {
			return nil, fmt.Errorf("fig16: %s train: %w", sp.Name, err)
		}
		fp.ref = ref
		fp.sites = make(map[uint32]bool)
		for pc, s := range train.Sites {
			if s.MDA > 0 {
				fp.sites[pc] = true
			}
		}
		progs = append(progs, fp)
	}
	w := &fig16Hot{env: e}
	cfgs := experiments.Fig16Configs()
	for _, fp := range progs {
		for _, name := range fig16Mechs {
			cfg := cfgs[name]
			opt := core.DefaultOptions(cfg.Mech)
			if cfg.Threshold != 0 {
				opt.HeatThreshold = cfg.Threshold
			}
			if pm, ok := policy.ByID(int(cfg.Mech)); ok && pm.UsesStaticProfile() {
				opt.StaticSites = fp.sites
			}
			w.pairs = append(w.pairs, fig16Pair{prog: fp, mech: name, opt: opt})
		}
	}
	w.order = rnd.Perm(len(w.pairs))
	return w, nil
}

func (w *fig16Hot) roundLen() int { return len(w.pairs) }

func (w *fig16Hot) op(i int) opOut {
	pair := w.pairs[w.order[i%len(w.order)]]
	rec, tl := w.env.rec, w.env.tally
	key := fmt.Sprintf("fig16-hot/%s/%s", pair.prog.name, pair.mech)

	t0 := time.Now()
	sid := rec.Begin("mem.load")
	m := mem.New()
	pair.prog.prog.Load(m, workload.Ref)
	rec.End(sid)
	sid = rec.Begin("core.new_engine")
	mach := machine.New(m, machine.DefaultParams())
	eng := core.NewEngine(m, mach, pair.opt)
	rec.End(sid)
	sid = rec.Begin("core.run")
	err := eng.Run(pair.prog.prog.Entry(), fig16Budget)
	rec.End(sid)
	var findings []string
	if err == nil {
		sid = rec.Begin("core.lint")
		findings = eng.Lint()
		rec.End(sid)
	}
	lat := time.Since(t0)
	switch {
	case err != nil:
		return opOut{lat: lat, fail: fmt.Errorf("%s: %w", key, err)}
	case len(findings) > 0:
		return opOut{lat: lat, fail: fmt.Errorf("%s: lint: %s", key, findings[0])}
	}
	out := engineOut(eng, mach, tl)
	out.lat = lat
	if n := eng.Stats().BlocksTranslated; n > 0 {
		w.env.low("host_insts_per_translation", float64(out.sim.Insts)/float64(n))
	}
	sid = rec.Begin("oracle.check")
	out.fail = w.env.check.check(key, pair.prog.ref, eng.FinalCPU(), m, out.sim)
	rec.End(sid)
	return out
}

func (w *fig16Hot) close() error { return nil }

// engineOut collects one finished engine run's counts into the tally and
// returns the op's simulated outcome.
func engineOut(eng *core.Engine, mach *machine.Machine, tl tally) opOut {
	return runOut(mach.Counters(), eng.Stats(), eng.TraceStats(), tl)
}

// runOut tallies one run's machine counters, engine statistics and trace
// statistics, and returns the op's simulated outcome.
func runOut(c machine.Counters, st core.Stats, ts machine.TraceStats, tl tally) opOut {
	tl.add("machine.host_insts", float64(c.Insts))
	tl.add("machine.misalign_traps", float64(c.MisalignTraps))
	tl.add("machine.chain_follows", float64(ts.ChainFollows))
	tl.add("machine.traced_insts", float64(ts.TracedInsts))
	tl.add("machine.traces_formed", float64(ts.Formed))
	tl.add("core.dispatches", float64(st.NativeBlockRuns))
	tl.add("core.translations", float64(st.BlocksTranslated))
	tl.add("core.interp_insts", float64(st.InterpretedInsts))
	tl.add("core.patches", float64(st.Patches))
	tl.add("core.aot_blocks", float64(st.AOTBlocks))
	tl.add("align.analyzed_insts", float64(st.StaticAnalyzedInsts))
	return opOut{insts: c.Insts + st.InterpretedInsts, sim: simOf(c)}
}
