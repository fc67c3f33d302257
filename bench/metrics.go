package main

import "time"

// metricDef is one named metric: its unit and, for an end-to-end metric,
// which direction is better and by what share of the base's median it may
// get worse before that counts as a regression. BENCHMARK.json lists the
// same names, units, directions and bounds; the smoke test holds the two
// together.
type metricDef struct {
	name, unit   string
	higherBetter bool
	bound        float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them in an untraced run.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "ops_per_s", unit: "ops/s", higherBetter: true, bound: 0.25},
	{name: "ops_per_s_1w", unit: "ops/s", higherBetter: true, bound: 0.25},
	{name: "allocs_per_op", unit: "count", bound: 0.12},
	{name: "peak_rss_mb", unit: "MB", bound: 0.25},
	{name: "bytes_per_op", unit: "bytes", bound: 0.05},
}

// endToEndUnits maps each end-to-end metric to its unit.
var endToEndUnits = func() map[string]string {
	m := make(map[string]string, len(endToEnd))
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	return m
}()

// perLayer are the single-layer metrics of a traced run, named
// <module>.<what>.
var perLayer = []metricDef{
	{name: "daggen.generate.us_per_graph", unit: "us"},
	{name: "daggen.tasks_per_graph", unit: "count"},
	{name: "workload.generate.us_per_op", unit: "us"},
	{name: "events.timeline.us_per_op", unit: "us"},
	{name: "events.per_op", unit: "count"},
	{name: "strategy.betas.us_per_call", unit: "us"},
	{name: "metrics.evaluate.us_per_op", unit: "us"},

	{name: "alloc.compute.ms_per_op", unit: "ms"},
	{name: "alloc.compute_alone.ms_per_op", unit: "ms"},
	{name: "alloc.compute.calls_per_op", unit: "count"},
	{name: "alloc.growth_steps_per_op", unit: "count"},
	{name: "alloc.share", unit: "ratio"},

	{name: "mapping.map.ms_per_op", unit: "ms"},
	{name: "mapping.placements_per_op", unit: "count"},
	{name: "mapping.share", unit: "ratio"},

	{name: "simexec.execute.ms_per_op", unit: "ms"},
	{name: "simexec.share", unit: "ratio"},
	{name: "sim.fairshare_1000.us_per_call", unit: "us"},

	{name: "online.schedule.ms_per_call", unit: "ms"},
	{name: "online.calls_per_op", unit: "count"},
	{name: "online.rebalances_per_op", unit: "count"},
	{name: "online.reschedules_per_op", unit: "count"},
	{name: "online.events_applied_per_op", unit: "count"},
	{name: "online.share", unit: "ratio"},

	{name: "scenario.expand.ms", unit: "ms"},
	{name: "scenario.point_at.ns", unit: "ns"},
	{name: "scenario.encode.us_per_op", unit: "us"},
	{name: "scenario.aggregate.us_per_op", unit: "us"},
	{name: "scenario.sweep.overhead_share", unit: "ratio"},
	{name: "scenario.sweep.efficiency", unit: "ratio"},
	{name: "experiment.scratch_gain", unit: "ratio"},

	{name: "cache.publish.us_per_op", unit: "us"},
	{name: "cache.open_verify.us_per_entry", unit: "us"},
	{name: "cache.lookup.us_per_op", unit: "us"},
	{name: "cache.hit_rate", unit: "ratio"},
	{name: "cache.verify_failures", unit: "count"},
	{name: "cache.bytes_per_op", unit: "bytes"},

	{name: "store.append.us_per_op", unit: "us"},
	{name: "store.sync.ms", unit: "ms"},
	{name: "store.open_recover.us_per_op", unit: "us"},
	{name: "store.open_read.ms", unit: "ms"},
	{name: "store.aggregate.us_per_op", unit: "us"},
	{name: "store.query.ms", unit: "ms"},
	{name: "store.query_fullscan.ms", unit: "ms"},
	{name: "store.query.bytes_read_share", unit: "ratio"},
	{name: "store.query.lines_per_result", unit: "ratio"},
	{name: "store.bytes_per_op", unit: "bytes"},
	{name: "store.idx_bytes_per_op", unit: "bytes"},
	{name: "store.query_p50_ms", unit: "ms"},
	{name: "store.reopen_ms", unit: "ms"},
	{name: "query.compile.us", unit: "us"},
	{name: "query.compile_cached.us", unit: "us"},

	{name: "service.req_p50_ms", unit: "ms"},
	{name: "service.req_p90_ms", unit: "ms"},
	{name: "service.req_p99_ms", unit: "ms"},
	{name: "service.req_samples", unit: "count"},
	{name: "service.exec.ms_p50", unit: "ms"},
	{name: "service.overhead.ms_p50", unit: "ms"},
	{name: "service.queue_wait.ms_mean", unit: "ms"},
	{name: "service.rejected", unit: "count"},
	{name: "service.resp_bytes_per_req", unit: "bytes"},
	{name: "trace.summarize.us_per_req", unit: "us"},

	{name: "coord.run.s", unit: "s"},
	{name: "coord.points_per_s", unit: "1/s"},
	{name: "coord.dispatches", unit: "count"},
	{name: "coord.retries", unit: "count"},
	{name: "coord.reassignments", unit: "count"},
	{name: "coord.overhead_share", unit: "ratio"},

	{name: "host.calib_ms", unit: "ms"},
	{name: "bench.cpu_ms_per_op", unit: "ms"},
	{name: "bench.trace_overhead_share", unit: "ratio"},
}

// layerInputs is everything a traced run measured.
type layerInputs struct {
	width int
	// slices holds the named workload's slice first, then the other
	// workloads', then the fleet pass and the micro probes.
	slices []slice
	// untraced holds each workload's untraced passes of the traced run,
	// by workload name.
	untraced map[string][]sample
	calib    []float64
}

// layerMetrics turns the traced run's spans and counters into the
// per-layer metrics. Times and counts of a span come from the first slice
// that recorded it — the named workload when it enters the layer,
// otherwise the workload that does — while shares, sweep overhead and
// efficiency describe the named workload only.
func layerMetrics(in layerInputs) map[string]metric {
	layers := make(map[string]layerStat)
	counts := make(map[string]float64)
	countOps := make(map[string]float64)
	for _, sl := range in.slices {
		for name, st := range sl.layers {
			if _, ok := layers[name]; !ok {
				layers[name] = st
			}
		}
		for name, v := range sl.counts {
			if _, ok := counts[name]; !ok {
				counts[name] = v
				countOps[name] = float64(sl.ops)
			}
		}
	}
	named := in.slices[0]
	out := make(map[string]float64)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perOp := func(count string) float64 { return ratio(counts[count], countOps[count]) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	out["daggen.generate.us_per_graph"] = ratio(us(layers["daggen.generate"].total), counts["daggen.graphs"])
	out["daggen.tasks_per_graph"] = ratio(counts["daggen.tasks"], counts["daggen.graphs"])
	out["workload.generate.us_per_op"] = layers["workload.generate"].perOp(time.Microsecond)
	out["events.timeline.us_per_op"] = layers["events.timeline"].perOp(time.Microsecond)
	out["events.per_op"] = perOp("events.count")
	out["strategy.betas.us_per_call"] = layers["strategy.betas"].perCall(time.Microsecond)
	out["metrics.evaluate.us_per_op"] = layers["metrics.evaluate"].perOp(time.Microsecond)

	out["alloc.compute.ms_per_op"] = layers["alloc.compute"].perOp(time.Millisecond)
	out["alloc.compute_alone.ms_per_op"] = layers["alloc.compute_alone"].perOp(time.Millisecond)
	out["alloc.compute.calls_per_op"] = ratio(float64(layers["alloc.compute"].calls+layers["alloc.compute_alone"].calls), float64(layers["alloc.compute"].ops))
	out["alloc.growth_steps_per_op"] = perOp("alloc.growth_steps")
	out["mapping.map.ms_per_op"] = layers["mapping.map"].perOp(time.Millisecond)
	out["mapping.placements_per_op"] = perOp("mapping.placements")
	out["simexec.execute.ms_per_op"] = layers["simexec.execute"].perOp(time.Millisecond)
	out["sim.fairshare_1000.us_per_call"] = layers["sim.fairshare_1000"].perCall(time.Microsecond)

	out["online.schedule.ms_per_call"] = layers["online.schedule"].perCall(time.Millisecond)
	out["online.calls_per_op"] = ratio(float64(layers["online.schedule"].calls), float64(layers["online.schedule"].ops))
	out["online.rebalances_per_op"] = perOp("online.rebalances")
	out["online.reschedules_per_op"] = perOp("online.reschedules")
	out["online.events_applied_per_op"] = perOp("online.events_applied")

	// Shares: a layer's self time over the named workload's op spans.
	rootTotal := float64(named.layers[named.root].total)
	share := func(spans ...string) float64 {
		var self time.Duration
		for _, name := range spans {
			self += named.layers[name].self
		}
		return ratio(float64(self), rootTotal)
	}
	out["alloc.share"] = share("alloc.compute", "alloc.compute_alone")
	out["mapping.share"] = share("mapping.map")
	out["simexec.share"] = share("simexec.execute")
	out["online.share"] = share("online.schedule")

	out["scenario.expand.ms"] = layers["scenario.expand"].perCall(time.Millisecond)
	out["scenario.point_at.ns"] = ratio(float64(layers["scenario.point_at"].total), counts["scenario.point_at.calls"])
	out["scenario.encode.us_per_op"] = layers["scenario.encode"].perOp(time.Microsecond)
	out["scenario.aggregate.us_per_op"] = layers["scenario.aggregate"].perOp(time.Microsecond)
	out["experiment.scratch_gain"] = counts["experiment.scratch_gain"]
	// Sweep overhead: what a 1-worker untraced pass costs per op beyond
	// the staged op itself. Efficiency: W-worker throughput over W times
	// the 1-worker throughput.
	// one and many are the named workload's fastest untraced passes at 1
	// and at W workers.
	var one, many *sample
	for i := range in.untraced[named.workload] {
		s := &in.untraced[named.workload][i]
		switch {
		case s.workers == 1 && (one == nil || s.wall < one.wall):
			one = s
		case s.workers > 1 && (many == nil || s.wall < many.wall):
			many = s
		}
	}
	if one != nil {
		staged := ratio(named.traced.Seconds(), float64(named.ops))
		out["scenario.sweep.overhead_share"] = 1 - ratio(staged, one.wall.Seconds()/float64(one.ops))
		out["scenario.sweep.efficiency"] = 1 // W == 1: reported as unresolved
		if many != nil {
			out["scenario.sweep.efficiency"] = ratio(float64(many.ops)/many.wall.Seconds(),
				float64(in.width)*float64(one.ops)/one.wall.Seconds())
		}
		widest := one
		if many != nil {
			widest = many
		}
		if widest.cpuOK {
			out["bench.cpu_ms_per_op"] = float64(widest.cpu.Nanoseconds()) / 1e6 / float64(widest.ops)
		}
	}

	out["cache.publish.us_per_op"] = layers["cache.publish"].perOp(time.Microsecond)
	out["cache.open_verify.us_per_entry"] = ratio(us(layers["cache.open_verify"].total), counts["cache.entries"])
	out["cache.lookup.us_per_op"] = layers["cache.lookup"].perOp(time.Microsecond)
	out["cache.hit_rate"] = ratio(counts["cache.hits"], counts["cache.hits"]+counts["cache.misses"])
	out["cache.verify_failures"] = counts["cache.verify_failures"]
	out["cache.bytes_per_op"] = ratio(counts["cache.bytes"], counts["cache.entries"])

	out["store.append.us_per_op"] = layers["store.append"].perOp(time.Microsecond)
	out["store.sync.ms"] = ms(layers["store.sync"].total)
	out["store.open_recover.us_per_op"] = layers["store.open_recover"].perOp(time.Microsecond)
	out["store.open_read.ms"] = ms(layers["store.open_read"].total)
	out["store.aggregate.us_per_op"] = layers["store.aggregate"].perOp(time.Microsecond)
	out["store.query.ms"] = ms(layers["store.query"].total)
	out["store.query_fullscan.ms"] = ms(layers["store.query_fullscan"].total)
	out["store.query.bytes_read_share"] = ratio(counts["store.query.bytes_read"], counts["store.query.bytes_total"])
	out["store.query.lines_per_result"] = ratio(counts["store.query.lines"], counts["store.query.emitted"])
	out["store.bytes_per_op"] = perOp("store.bytes")
	out["store.idx_bytes_per_op"] = perOp("store.idx_bytes")
	out["query.compile.us"] = us(layers["query.compile"].total)
	out["query.compile_cached.us"] = us(layers["query.compile_cached"].total)
	out["store.query_p50_ms"] = extraMedian(wide(in.untraced["store_warm"]), "store.query_p50_ms")
	out["store.reopen_ms"] = extraMedian(wide(in.untraced["store_warm"]), "store.reopen_ms")

	// Client latencies are pooled over the untraced W-client passes, so
	// the 90th percentile has ten samples beyond it. The 99th has one: it
	// is printed with the sample count and never gated.
	var lat []float64
	for _, s := range wide(in.untraced["service_crowded"]) {
		lat = append(lat, s.latencies...)
		out["service.resp_bytes_per_req"] = ratio(float64(s.bytes), float64(s.ops))
		out["service.rejected"] += s.extra["service.rejected"]
	}
	out["service.req_p50_ms"] = percentile(lat, 50)
	out["service.req_p90_ms"] = percentile(lat, 90)
	out["service.req_p99_ms"] = percentile(lat, 99)
	out["service.req_samples"] = float64(len(lat))
	for _, name := range []string{"service.exec.ms_p50", "service.overhead.ms_p50", "service.queue_wait.ms_mean"} {
		out[name] = extraMedian(wide(in.untraced["service_crowded"]), name)
	}
	out["trace.summarize.us_per_req"] = layers["trace.summarize"].perOp(time.Microsecond)

	for _, sl := range in.slices {
		if sl.workload != "fleet" {
			continue
		}
		out["coord.run.s"] = sl.traced.Seconds()
		out["coord.points_per_s"] = ratio(float64(sl.ops), sl.traced.Seconds())
		out["coord.dispatches"] = sl.counts["coord.dispatches"]
		out["coord.retries"] = sl.counts["coord.retries"]
		out["coord.reassignments"] = sl.counts["coord.reassignments"]
		// Against the same points swept locally by one worker and split
		// perfectly over the fleet's workers.
		ideal := sl.untraced.Seconds() / sl.counts["coord.workers"]
		out["coord.overhead_share"] = 1 - ratio(ideal, sl.traced.Seconds())
	}

	out["host.calib_ms"] = median(in.calib)
	out["bench.trace_overhead_share"] = ratio(named.traced.Seconds(), named.untraced.Seconds()) - 1

	metrics := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		metrics[d.name] = metric{out[d.name], d.unit}
	}
	return metrics
}

// wide returns the samples taken at the most workers.
func wide(samples []sample) []sample {
	var out []sample
	for _, s := range samples {
		if len(out) > 0 && s.workers > out[0].workers {
			out = out[:0]
		}
		if len(out) == 0 || s.workers == out[0].workers {
			out = append(out, s)
		}
	}
	return out
}

// extraMedian is the median over samples of one of the workload's own
// per-pass numbers.
func extraMedian(samples []sample, name string) float64 {
	var vs []float64
	for _, s := range samples {
		vs = append(vs, s.extra[name])
	}
	return median(vs)
}
