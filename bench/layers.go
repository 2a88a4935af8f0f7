package main

import (
	"strings"

	"weakorder/internal/metrics"
)

// layerMetrics lists the per-layer metrics every traced run prints, with
// their units; a layer a workload does not reach reads 0.
var layerMetrics = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		// Verdict path: spans around the public calls fuzz.Checker.Check makes.
		{"core.drf0_ms", "ms"},
		{"core.drf0_executions", "count"},
		{"model.sc_ms", "ms"},
		{"model.sc_states", "count"},
		{"model.machines_ms", "ms"},
		{"model.machines_states", "count"},
		{"explore.calls_per_verdict", "count"},
		{"explore.us_per_call", "us"},
		{"explore.states_per_call", "count"},
		{"explore.budget_exhausted", "count"},
		{"fuzz.minimize_ms", "ms"},
		{"fuzz.minimize_size_ratio", "ratio"},
		{"campaign.store_get_us", "us"},
		{"campaign.store_put_us", "us"},
		{"campaign.store_hit_ratio", "ratio"},
		{"campaign.http_overhead_us", "us"},
		{"service.cold_p50_ms", "ms"},
		{"service.cold_p90_ms", "ms"},
		{"service.cached_p50_ms", "ms"},
		{"service.cached_p99_ms", "ms"},
		{"trace.verdict_cover_pct", "%"},
		// Timed path: the machine's public counters, per machine.Run.
		{"interconnect.messages_per_run", "count"},
		{"host.ns_per_message", "ns"},
		{"cache.hits_per_run", "count"},
		{"cache.read_misses_per_run", "count"},
		{"cache.write_misses_per_run", "count"},
		{"cache.dir_gets_per_run", "count"},
		{"cache.dir_getx_per_run", "count"},
		{"cache.dir_queued_per_run", "count"},
		{"proc.compute_share", "ratio"},
		{"proc.counter_stall_share", "ratio"},
		{"proc.reserve_stall_share", "ratio"},
		{"proc.fence_stall_share", "ratio"},
		{"proc.idle_share", "ratio"},
		{"openloop.ops_per_run", "count"},
		{"trace_overhead_pct", "%"},
		{"process.max_rss_mb", "MB"},
	}
	for _, mod := range profModuleNames() {
		out = append(out, struct{ name, unit string }{"prof." + mod + ".self_pct", "%"})
	}
	return out
}()

// addLayers derives the per-layer metrics of a traced run: plain is its
// untraced half (run under the CPU profiler, whose self-time shares are
// given), traced its traced half and spans the traced half's spans.
func addLayers(m map[string]metric, plain, traced *phase, spans []*span, shares map[string]float64) {
	v := make(map[string]float64)
	agg := aggregate(spans)
	get := func(name string) *spanAgg {
		if a := agg[name]; a != nil {
			return a
		}
		return &spanAgg{args: map[string]float64{}}
	}
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}

	verdicts := get("verdict")
	drf0, sc, mach, shrink := get("core.drf0"), get("model.sc"), get("model.machine"), get("fuzz.minimize")
	v["core.drf0_ms"] = per(ms(drf0.total), drf0.count)
	v["core.drf0_executions"] = per(drf0.args["executions"], drf0.count)
	v["model.sc_ms"] = per(ms(sc.total), sc.count)
	v["model.sc_states"] = per(sc.args["states"], sc.count)
	v["model.machines_ms"] = per(ms(mach.total), verdicts.count)
	v["model.machines_states"] = per(mach.args["states"], verdicts.count)
	calls := sc.count + mach.count
	v["explore.calls_per_verdict"] = per(float64(calls), verdicts.count)
	v["explore.us_per_call"] = per(us(sc.total+mach.total), calls)
	v["explore.states_per_call"] = per(sc.args["states"]+mach.args["states"], calls)
	v["explore.budget_exhausted"] = verdicts.args["budget_exhausted"]
	v["fuzz.minimize_ms"] = per(ms(shrink.total), shrink.count)
	v["fuzz.minimize_size_ratio"] = per(shrink.args["size_ratio"], shrink.count)

	v["campaign.store_get_us"] = quantile(get("campaign.store_get").durs, 0.5) * 1000
	v["campaign.store_put_us"] = quantile(get("campaign.store_put").durs, 0.5) * 1000
	if agg["request"] != nil { // the /v1/check workloads
		v["campaign.store_hit_ratio"] = per(float64(plain.cached), plain.calls)
		v["service.cold_p50_ms"] = quantile(plain.cold, 0.5)
		v["service.cold_p90_ms"] = quantile(plain.cold, 0.9)
		v["service.cached_p50_ms"] = quantile(plain.hit, 0.5)
		v["service.cached_p99_ms"] = quantile(plain.hit, 0.99)
	}
	if len(plain.hit) > 0 {
		v["campaign.http_overhead_us"] = v["service.cached_p50_ms"]*1000 - v["campaign.store_get_us"]
	}
	// The verdict phases' spans per verdict against an untraced cold
	// operation: near 100% when the spans account for the service's time.
	phases := drf0.total + sc.total + mach.total + shrink.total
	if coldMean := mean(plain.cold); coldMean > 0 && verdicts.count > 0 {
		perOp := ms(phases) / float64(traced.calls-traced.cached)
		v["trace.verdict_cover_pct"] = perOp / coldMean * 100
	}

	runs := get("machine.run")
	for _, k := range []string{"hits", "read_misses", "write_misses", "dir_gets", "dir_getx", "dir_queued"} {
		v["cache."+k+"_per_run"] = per(runs.args["cache."+k], runs.count)
	}
	v["interconnect.messages_per_run"] = per(runs.args["messages"], runs.count)
	if msgs := v["interconnect.messages_per_run"]; msgs > 0 {
		v["host.ns_per_message"] = quantile(plain.lat, 0.5) * 1e6 / msgs
	}
	v["openloop.ops_per_run"] = per(runs.args["delivered"], runs.count)
	var cycles float64
	for c := 0; c < metrics.NumClasses; c++ {
		cycles += runs.args["cycles."+metrics.Class(c).String()]
	}
	for _, c := range []metrics.Class{metrics.ClassCompute, metrics.ClassCounterStall, metrics.ClassReserveStall, metrics.ClassFenceStall, metrics.ClassIdle} {
		if cycles > 0 {
			v["proc."+shareName(c)] = runs.args["cycles."+c.String()] / cycles
		}
	}

	perPlain := plain.elapsed.Seconds() / float64(plain.rounds)
	perTraced := traced.elapsed.Seconds() / float64(traced.rounds)
	v["trace_overhead_pct"] = (perTraced/perPlain - 1) * 100
	v["process.max_rss_mb"] = maxRSSMB()
	for mod, pct := range shares {
		v["prof."+mod+".self_pct"] = pct
	}
	for _, lm := range layerMetrics {
		m[lm.name] = metric{v[lm.name], lm.unit}
	}
}

// shareName names a cycle class's share metric, e.g. counter_stall_share.
func shareName(c metrics.Class) string {
	return strings.ReplaceAll(c.String(), "-", "_") + "_share"
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
