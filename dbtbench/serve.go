package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"mdabt/internal/align"
	"mdabt/internal/aot"
	"mdabt/internal/core"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/serve"
	"mdabt/internal/store"
)

const (
	serveUniverse = 16
	servePrograms = 4
	serveRepeats  = 2 // requests per (program, mechanism) in one session
	serveBudget   = 2_000_000_000
)

// serveSpec is the serve-store program shape: a few hundred blocks, about
// 10 ms of host time per request.
func serveSpec(id int) GenSpec {
	return GenSpec{Seed: int64(5000 + id), Blocks: 300, Iterations: 40, SitesPerBlock: 3,
		MisFrac: 0.12, LateFrac: 0.08, LateIter: 14, DataBytes: 64 << 10}
}

// serveMechs are the request mechanisms: store-less exception handling,
// the AOT tier adopting the stored image, and SPEH adopting the stored
// trap profile.
var serveMechs = []string{"eh", "aot", "speh"}

type serveInput struct {
	*genInput
	hash    string // store program identity: the content hash the server derives
	encoded []byte // the stored AOT image, encoded
}

type serveReq struct {
	in   *serveInput
	mech string
	opt  core.Options
}

// serveStore runs sessions against serve.Server: NewServer with one worker
// and a persistent store, one round of closed-loop Do requests, Close
// (which merges the sessions' trap profiles into the store).
type serveStore struct {
	env   *env
	dir   string
	st    *store.Store
	srv   *serve.Server
	sched []serveReq
	// mem is the worker's guest memory, captured by the request loader so
	// the oracle can read the data region after Do returns.
	mem *mem.Memory
	// probe is a private engine that re-runs requests with the same
	// options to split serve.do into reset, run and serving overhead.
	probe *core.Engine
}

func setupServe(e *env) (bench, error) {
	rnd := rand.New(rand.NewSource(e.seed))
	gins, err := setupGenInputs(e, rnd, serveUniverse, servePrograms, serveSpec)
	if err != nil {
		return nil, fmt.Errorf("serve-store: %w", err)
	}
	dir, err := os.MkdirTemp(e.workDir, "store-")
	if err != nil {
		return nil, err
	}
	w := &serveStore{env: e, dir: dir}
	if w.st, err = store.Open(dir); err != nil {
		return nil, err
	}
	var ins []*serveInput
	for _, g := range gins {
		in := &serveInput{genInput: g, hash: store.HashProgram(g.prog.Image, g.prog.Data)}
		m := mem.New()
		entry := g.prog.Load(m)
		sid := e.rec.Begin("aot.build")
		im := aot.Build(aot.MemDecoder(m), entry)
		e.rec.End(sid)
		var buf bytes.Buffer
		if err := im.Encode(&buf); err != nil {
			return nil, err
		}
		in.encoded = buf.Bytes()
		e.setup.add("align.cfg_blocks", float64(len(im.Blocks)))
		e.setup.add("aot.image_kb", float64(buf.Len())/1024)
		sid = e.rec.Begin("store.save")
		err := w.st.Save(store.Key{Program: in.hash, Fingerprint: mechOptions("aot").Fingerprint(), Kind: store.KindAOTImage}, im)
		e.rec.End(sid)
		if err != nil {
			return nil, fmt.Errorf("serve-store: save image: %w", err)
		}
		ins = append(ins, in)
	}
	for _, in := range ins {
		for _, mech := range serveMechs {
			for r := 0; r < serveRepeats; r++ {
				w.sched = append(w.sched, serveReq{in: in, mech: mech, opt: mechOptions(mech)})
			}
		}
	}
	rnd.Shuffle(len(w.sched), func(i, j int) { w.sched[i], w.sched[j] = w.sched[j], w.sched[i] })

	// One untimed session leaves every trap profile warm.
	w.srv = w.newServer()
	for _, q := range w.sched {
		if _, err := w.srv.Do(context.Background(), w.request(q)); err != nil {
			return nil, fmt.Errorf("serve-store: warm-up: %w", err)
		}
	}
	if err := w.srv.Close(); err != nil {
		return nil, fmt.Errorf("serve-store: warm-up close: %w", err)
	}
	w.srv = nil
	return w, nil
}

func mechOptions(name string) core.Options {
	m, ok := core.MechanismByName(name)
	if !ok {
		panic("unknown mechanism " + name)
	}
	return core.DefaultOptions(m)
}

func (w *serveStore) newServer() *serve.Server {
	return serve.NewServer(serve.ServerOptions{Pool: serve.Options{Workers: 1}, Store: w.st, Budget: serveBudget})
}

// request sends the program as Image/Data, so the server hashes the
// content for its store identity. The loader writes the same bytes the
// server would and records the worker's memory for the oracle.
func (w *serveStore) request(q serveReq) serve.Request {
	opt := q.opt
	p := q.in.prog
	return serve.Request{
		Image:   p.Image,
		Data:    p.Data,
		Options: &opt,
		Load: func(m *mem.Memory) uint32 {
			w.mem = m
			return p.Load(m)
		},
	}
}

func (w *serveStore) roundLen() int { return len(w.sched) }

func (w *serveStore) op(i int) opOut {
	j := i % len(w.sched)
	rec, tl := w.env.rec, w.env.tally
	if j == 0 {
		sid := rec.Begin("serve.new_server")
		w.srv = w.newServer()
		rec.End(sid)
	}
	q := w.sched[j]
	key := fmt.Sprintf("serve-store/%d/%s", q.in.id, q.mech)

	before := w.st.Stats()
	t0 := time.Now()
	sid := rec.Begin("serve.do")
	res, err := w.srv.Do(context.Background(), w.request(q))
	rec.End(sid)
	lat := time.Since(t0)
	after := w.st.Stats()
	var out opOut
	if err != nil {
		out = opOut{lat: lat, fail: fmt.Errorf("%s: %w", key, err)}
	} else {
		tl.add("serve.attempts", float64(res.Attempts))
		if q.mech == "aot" {
			tl.add("store.aot_loads", float64(after.Loads-before.Loads))
			tl.add("store.aot_hits", float64(after.Hits-before.Hits))
			w.env.low("aot_store_hit_ratio", ratio(float64(after.Hits-before.Hits), float64(after.Loads-before.Loads)))
		}
		out = runOut(res.Counters, res.Stats, res.Traces, tl)
		out.lat = lat
		sid = rec.Begin("oracle.check")
		out.fail = w.env.check.check(key, q.in.ref, res.CPU, w.mem, out.sim)
		rec.End(sid)
		if out.fail == nil && rec.on {
			t := time.Now()
			sid = rec.Begin("probe")
			out.fail = w.probeOp(q, out.sim)
			rec.End(sid)
			out.probe = time.Since(t)
		}
	}
	if j == len(w.sched)-1 {
		before := w.st.Stats()
		sid := rec.Begin("serve.close")
		err := w.srv.Close()
		rec.End(sid)
		tl.add("store.merges", float64(w.st.Stats().Merges-before.Merges))
		tl.add("serve.sessions", 1)
		w.srv = nil
		if err != nil && out.fail == nil {
			out.fail = fmt.Errorf("serve-store: close: %w", err)
		}
	}
	return out
}

// probeOp repeats the request's warm start and run on the private probe
// engine, timing each layer on its own; its simulated outcome must equal
// the served one.
func (w *serveStore) probeOp(q serveReq, want Sim) error {
	rec := w.env.rec
	opt := q.opt
	switch q.mech {
	case "aot":
		var im aot.Image
		sid := rec.Begin("store.load")
		err := w.st.Load(store.Key{Program: q.in.hash, Fingerprint: opt.Fingerprint(), Kind: store.KindAOTImage}, &im)
		rec.End(sid)
		if err != nil {
			return fmt.Errorf("probe: store load: %w", err)
		}
		sid = rec.Begin("aot.decode")
		dec, err := aot.Decode(bytes.NewReader(q.in.encoded))
		rec.End(sid)
		if err != nil {
			return fmt.Errorf("probe: aot decode: %w", err)
		}
		dec.Apply(&opt)
	case "speh":
		var tp store.TrapProfile
		sid := rec.Begin("store.load")
		err := w.st.Load(store.Key{Program: q.in.hash, Fingerprint: opt.Fingerprint(), Kind: store.KindTrapProfile}, &tp)
		rec.End(sid)
		if err != nil {
			return fmt.Errorf("probe: store load: %w", err)
		}
		opt.StaticSites = tp.StaticSites()
	}
	if w.probe == nil {
		m := mem.New()
		w.probe = core.NewEngine(m, machine.New(m, machine.DefaultParams()), opt)
	}
	sid := rec.Begin("core.reset")
	w.probe.Reset(opt)
	rec.End(sid)
	entry := q.in.prog.Load(w.probe.Mem)
	if opt.StaticAlign {
		sid = rec.Begin("align.analyze")
		align.Analyze(aot.MemDecoder(w.probe.Mem), entry)
		rec.End(sid)
	}
	sid = rec.Begin("core.run")
	err := w.probe.Run(entry, serveBudget)
	rec.End(sid)
	if err != nil {
		return fmt.Errorf("probe: run: %w", err)
	}
	if got := simOf(w.probe.Mach.Counters()); got != want {
		return fmt.Errorf("probe: simulated %+v, served %+v", got, want)
	}
	return nil
}

func (w *serveStore) close() error {
	var err error
	if w.srv != nil {
		err = w.srv.Close()
	}
	if rmErr := os.RemoveAll(w.dir); err == nil {
		err = rmErr
	}
	return err
}
