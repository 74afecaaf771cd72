package main

import (
	"time"
)

// opSpans are the spans recorded inside ops; each gets a self-time metric.
var opSpans = []string{
	"op", "mem.load", "core.new_engine", "core.run", "core.lint", "oracle.check",
	"serve.new_server", "serve.do", "serve.close",
	"core.reset", "store.load", "aot.decode", "align.analyze",
}

// callSpans report their mean duration per call as "<span>_ms".
var callSpans = []string{
	"mem.load", "core.new_engine", "core.run", "core.lint",
	"serve.do", "serve.close", "core.reset", "store.load", "aot.decode", "align.analyze",
	"core.census", "aot.build", "store.save",
}

// perOpCounts report their mean per op.
var perOpCounts = []string{
	"machine.host_insts", "machine.misalign_traps", "machine.chain_follows", "machine.traces_formed",
	"core.dispatches", "core.translations", "core.interp_insts", "core.patches",
	"core.aot_blocks", "align.analyzed_insts", "serve.attempts",
}

// overheadOf are the end-to-end metrics whose tracing overhead (traced
// minus untraced) is reported as "trace.overhead.<metric>".
var overheadOf = []string{"sim_mips", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_op"}

// perLayer derives the per-layer metrics of a traced window tw from the
// recorder's spans and the window's tallies. A layer a workload does not
// run reports 0.
func perLayer(e *env, tw window, setupReps int, traced, plain map[string]metric) map[string]metric {
	out := make(map[string]metric)
	ops := float64(tw.ops)
	t := e.tally

	total := make(map[string]time.Duration)
	calls := make(map[string]int)
	for _, s := range e.rec.Spans() {
		total[s.Name] += time.Duration(s.End - s.Start)
		calls[s.Name]++
	}
	// Set-up spans have names of their own, so the self times of opSpans
	// come from the window alone.
	self := SelfTimes(e.rec.Spans())
	for _, n := range opSpans {
		out["self."+n+"_ms"] = metric{ms(self[n]) / ops, "ms"}
	}
	for _, n := range callSpans {
		v := 0.0
		if calls[n] > 0 {
			v = ms(total[n]) / float64(calls[n])
		}
		out[n+"_ms"] = metric{v, "ms"}
	}
	for _, n := range perOpCounts {
		out[n] = metric{t[n] / ops, "count"}
	}

	hostInsts := t["machine.host_insts"]
	out["machine.ns_per_host_inst"] = metric{ratio(float64(total["core.run"]), hostInsts), "ns"}
	out["machine.traced_frac"] = metric{ratio(t["machine.traced_insts"], hostInsts), "ratio"}
	out["core.us_per_translation"] = metric{ratio(float64(total["core.run"])/1e3, t["core.translations"]), "us"}
	out["core.alloc_mb_per_op"] = metric{float64(tw.alloc) / (1 << 20) / ops, "MB"}
	overhead := 0.0
	if calls["serve.do"] > 0 {
		overhead = ms(total["serve.do"]-total["core.reset"]-total["core.run"]) / ops
	}
	out["serve.overhead_ms"] = metric{overhead, "ms"}
	out["store.hit_ratio"] = metric{ratio(t["store.aot_hits"], t["store.aot_loads"]), "ratio"}
	out["store.merges"] = metric{ratio(t["store.merges"], t["serve.sessions"]), "count"}
	out["align.cfg_blocks"] = metric{e.setup["align.cfg_blocks"] / float64(setupReps), "count"}
	out["aot.image_kb"] = metric{e.setup["aot.image_kb"] / float64(setupReps), "KiB"}
	for _, n := range overheadOf {
		out["trace.overhead."+n] = metric{traced[n].Value - plain[n].Value, plain[n].Unit}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
