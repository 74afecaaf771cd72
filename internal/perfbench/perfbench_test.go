package perfbench

import (
	"testing"

	"mdabt/internal/core"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
)

// runBench adapts a suite entry to the standard testing harness.
func runBench(b *testing.B, bench Bench) {
	b.Helper()
	op, err := bench.Make()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	if bench.UnitsPerOp > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bench.UnitsPerOp),
			"ns/"+bench.Unit)
	}
}

func BenchmarkMemReadWrite(b *testing.B)       { runBench(b, MemReadWrite()) }
func BenchmarkGuestExec(b *testing.B)          { runBench(b, GuestExec()) }
func BenchmarkInterpreterLoop(b *testing.B)    { runBench(b, InterpreterLoop()) }
func BenchmarkDispatchLoop(b *testing.B)       { runBench(b, DispatchLoop()) }
func BenchmarkDispatchLoopTraced(b *testing.B) { runBench(b, DispatchLoopTraced()) }
func BenchmarkColdTranslate(b *testing.B)      { runBench(b, ColdTranslate()) }
func BenchmarkEndToEnd(b *testing.B)           { runBench(b, EndToEnd()) }

// TestSteadyStateAllocs pins the PR's allocation-free guarantee: after
// warm-up, the simulated-memory fast paths and the translated-code dispatch
// loop must not allocate. (AllocsPerRun performs one untimed warm-up call,
// which absorbs lazy page/iline allocation.)
func TestSteadyStateAllocs(t *testing.T) {
	for _, bench := range []Bench{MemReadWrite(), DispatchLoop()} {
		op, err := bench.Make()
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		if allocs := testing.AllocsPerRun(20, op); allocs > 0 {
			t.Errorf("%s: %v allocs per op in steady state, want 0", bench.Name, allocs)
		}
	}
}

// maxAllocsPerTranslation bounds the cold translation path's heap
// allocations per translated block, fresh engine included (about 15 at Go
// 1.24; the bound leaves room for other toolchains' map and slice growth).
// It is a deterministic counter, so unlike a timing it can gate CI.
const maxAllocsPerTranslation = 20

// TestColdTranslateAllocs gates the cold translation path's allocations:
// one ColdTranslate op must translate every block exactly once and stay
// under maxAllocsPerTranslation allocations per translation.
func TestColdTranslateAllocs(t *testing.T) {
	img, entry, err := coldProgram()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	m.WriteBytes(uint64(entry), img)
	eng := core.NewEngine(m, machine.New(m, machine.DefaultParams()), core.DefaultOptions(core.Direct))
	if err := eng.Run(entry, 1<<62); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().BlocksTranslated; got != ColdTranslateBlocks {
		t.Fatalf("cold program translated %d blocks, want %d", got, ColdTranslateBlocks)
	}
	op, err := ColdTranslate().Make()
	if err != nil {
		t.Fatal(err)
	}
	perTranslation := testing.AllocsPerRun(5, op) / ColdTranslateBlocks
	t.Logf("%.2f allocs per translation", perTranslation)
	if perTranslation > maxAllocsPerTranslation {
		t.Errorf("%.2f allocs per translation, want ≤ %d", perTranslation, maxAllocsPerTranslation)
	}
}

// TestSuiteRuns smoke-tests every suite entry: one op each must complete
// without panicking (the suite's ops panic on internal errors).
func TestSuiteRuns(t *testing.T) {
	for _, bench := range Suite() {
		op, err := bench.Make()
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		op()
		if bench.UnitsPerOp == 0 {
			t.Errorf("%s: UnitsPerOp not set", bench.Name)
		}
	}
}
