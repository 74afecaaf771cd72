// Command dbtbench is the repository benchmark: it runs one seeded
// workload against the translator's public packages, checks every op
// against the reference interpreter and expected.json, and prints every
// metric by name with its unit. The last line of standard output is the
// JSON result. See README.md in this directory for the workloads and the
// noise rules.
//
// Usage (from the repository root):
//
//	bash dbtbench/run.sh --workload cold-start --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// bench is one workload after set-up. op runs op i of the workload's
// deterministic sequence; a round is roundLen consecutive ops, and
// measurement always covers whole rounds so every run sees the same mix.
type bench interface {
	roundLen() int
	op(i int) opOut
	close() error
}

// opOut is one op's outcome.
type opOut struct {
	lat   time.Duration // what the op's caller waits for
	probe time.Duration // traced-only probe work, left out of the window's throughput
	insts uint64        // simulated work: host insts retired + guest insts interpreted
	sim   Sim
	fail  error
}

// tally sums per-layer counts over a window.
type tally map[string]float64

func (t tally) add(name string, v float64) { t[name] += v }

// env is what workloads share: the seed, the span recorder, the count
// tallies, the oracle, and a scratch directory inside the checkout.
type env struct {
	seed    int64
	rec     *Recorder
	tally   tally // per-op counts of the current window
	setup   tally // counts made during set-up
	check   *checker
	workDir string
	// drawAll makes set-up draw every program of each universe, to
	// rewrite expected.json.
	drawAll bool
	// lows holds per-op minimums that show a workload stresses what it
	// claims; they are printed on the stress line.
	lows map[string]float64
}

// low records v under name if it is the smallest seen.
func (e *env) low(name string, v float64) {
	if cur, ok := e.lows[name]; !ok || v < cur {
		e.lows[name] = v
	}
}

var workloads = map[string]struct {
	setup func(*env) (bench, error)
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
	warm      int // untimed rounds before measuring
}{
	"fig16-hot":   {setupFig16, 3, 0},
	"cold-start":  {setupCold, 9, 1},
	"serve-store": {setupServe, 9, 0},
}

func main() {
	name := flag.String("workload", "", "workload: fig16-hot, cold-start or serve-store")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement window")
	trace := flag.Int("trace", 0, "1: also run a traced window and report per-layer metrics")
	record := flag.Bool("write-expected", false, "run every program of every workload once and rewrite expected.json")
	flag.Parse()
	var err error
	if *record {
		err = writeAllExpected()
	} else {
		err = run(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbtbench:", err)
		os.Exit(1)
	}
}

func newEnv(seed int64, record bool) (*env, error) {
	// Re-recording starts empty, so a deliberate change of outcome is not
	// taken for nondeterminism.
	want := Expected{}
	if !record {
		var err error
		if want, err = loadExpected(); err != nil {
			return nil, err
		}
	}
	dir := filepath.Join(".bench_build", fmt.Sprintf("dbtbench-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &env{seed: seed, rec: NewRecorder(false), tally: tally{}, setup: tally{},
		check: &checker{want: want, record: record}, workDir: dir, lows: map[string]float64{}}, nil
}

// window is one measured stretch of whole rounds.
type window struct {
	lats          []float64 // op latencies, ms
	rounds        []round
	wall          time.Duration
	alloc         uint64
	ops, failed   int
	firstFailures []error
}

// round is one round's totals, probe work excluded.
type round struct {
	wall, cpu time.Duration
	insts     uint64
	ops       int
}

func measure(e *env, b bench, seconds float64, fromOp int) window {
	var w window
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	rl := b.roundLen()
	var cur round
	rstart, rcpu := start, cpuTime()
	for i := 0; ; i++ {
		e.rec.SetOp(fromOp + i)
		sid := e.rec.Begin("op")
		out := b.op(i)
		e.rec.End(sid)
		w.ops++
		cur.ops++
		cur.insts += out.insts
		cur.wall -= out.probe
		cur.cpu -= out.probe
		w.lats = append(w.lats, float64(out.lat)/1e6)
		if out.fail != nil {
			w.failed++
			if len(w.firstFailures) < 3 {
				w.firstFailures = append(w.firstFailures, out.fail)
			}
		}
		if (i+1)%rl == 0 {
			now, cpu := time.Now(), cpuTime()
			cur.wall += now.Sub(rstart)
			cur.cpu += cpu - rcpu
			w.rounds = append(w.rounds, cur)
			cur, rstart, rcpu = round{}, now, cpu
			// Stop at the round boundary nearest the requested length,
			// once the p90 has enough samples beyond it.
			el := now.Sub(start).Seconds()
			if el+el/float64(len(w.rounds))/2 >= seconds && (seconds == 0 || Reportable(0.9, w.ops)) {
				break
			}
		}
	}
	w.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	w.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	e.rec.SetOp(-1)
	return w
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd derives the end-to-end metrics of a window. Throughputs are
// medians over rounds, so a short disturbance moves one round, not the
// run.
func endToEnd(w window, setupS float64) map[string]metric {
	var mips, opsPerS, cpuPerOp []float64
	for _, r := range w.rounds {
		mips = append(mips, float64(r.insts)/r.wall.Seconds()/1e6)
		opsPerS = append(opsPerS, float64(r.ops)/r.wall.Seconds())
		cpuPerOp = append(cpuPerOp, float64(r.cpu)/1e6/float64(r.ops))
	}
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"sim_mips":       {median(mips), "Minst/s"},
		"ops_per_s":      {median(opsPerS), "1/s"},
		"latency_p50_ms": {Percentile(w.lats, 0.5), "ms"},
		"latency_p90_ms": {Percentile(w.lats, 0.9), "ms"},
		"cpu_ms_per_op":  {median(cpuPerOp), "ms"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	e, err := newEnv(seed, false)
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.workDir)
	e.rec.on = traced

	var b bench
	var setupTimes []float64
	for r := 0; r < wl.setupReps; r++ {
		if b != nil {
			if err := b.close(); err != nil {
				return err
			}
		}
		runtime.GC()
		t0 := time.Now()
		b, err = wl.setup(e)
		if err != nil {
			return fmt.Errorf("%s: setup: %w", name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer b.close()
	setupS := median(setupTimes)

	attempted, failed := 0, 0
	var failures []error
	account := func(w window) {
		attempted += w.ops
		failed += w.failed
		failures = append(failures, w.firstFailures...)
	}
	e.rec.on = false
	for r := 0; r < wl.warm; r++ {
		account(measure(e, b, 0, -1))
	}
	e.tally = tally{}
	plain := measure(e, b, seconds, 0)
	account(plain)
	res := result{Metrics: endToEnd(plain, setupS)}
	if err := mustReportable(0.9, plain.ops); err != nil {
		return err
	}

	if traced {
		plainCounts := e.tally
		e.tally = tally{}
		e.rec.on = true
		tw := measure(e, b, seconds, plain.ops)
		account(tw)
		if err := mustReportable(0.9, tw.ops); err != nil {
			return err
		}
		// Both windows cover whole rounds of the same ops, so tracing must
		// leave every per-op count exactly as it was.
		for _, n := range perOpCounts {
			if p, t := plainCounts[n]/float64(plain.ops), e.tally[n]/float64(tw.ops); math.Abs(p-t) > 1e-9*math.Abs(p) {
				failed++
				failures = append(failures, fmt.Errorf("%s per op: %g traced, %g untraced", n, t, p))
			}
		}
		res.Metrics = perLayer(e, tw, wl.setupReps, endToEnd(tw, setupS), res.Metrics)
		if err := writeSpans(e, name, seed); err != nil {
			return err
		}
	}
	res.Attempted, res.Failed = attempted, failed
	res.Correct = failed == 0

	fmt.Printf("env: workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s ops=%d rounds=%d seconds=%.1f trace=%v\n",
		name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), plain.ops, len(plain.rounds), plain.wall.Seconds(), traced)
	fmt.Printf("failed: %d/%d ops (%.2f%%)\n", failed, attempted, 100*float64(failed)/float64(attempted))
	for _, f := range failures {
		fmt.Println("failure:", f)
	}
	fmt.Print("stress:")
	for _, n := range sortedKeys(e.lows) {
		fmt.Printf(" %s=%.4g", n, e.lows[n])
	}
	fmt.Println()
	printMetrics(res.Metrics)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printMetrics(ms map[string]metric) {
	for _, n := range sortedKeys(ms) {
		fmt.Printf("  %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func writeSpans(e *env, name string, seed int64) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)))
	if err != nil {
		return err
	}
	if err := e.rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeAllExpected runs every program of every workload's universe once,
// checking each against the reference interpreter, and rewrites
// expected.json with their simulated outcomes.
func writeAllExpected() error {
	e, err := newEnv(0, true)
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.workDir)
	e.drawAll = true
	for _, name := range []string{"fig16-hot", "cold-start", "serve-store"} {
		b, err := workloads[name].setup(e)
		if err != nil {
			return fmt.Errorf("%s: setup: %w", name, err)
		}
		w := measure(e, b, 0, 0)
		if cerr := b.close(); cerr != nil {
			return cerr
		}
		if w.failed > 0 {
			return fmt.Errorf("%s: %d ops failed, first: %v", name, w.failed, w.firstFailures[0])
		}
		fmt.Printf("%s: %d ops recorded\n", name, w.ops)
	}
	return writeExpected(e.check.want)
}
