package main

import (
	"fmt"
	"math"
	"runtime"
	rtm "runtime/metrics"
	"sort"

	"idebench/internal/metrics"
	"idebench/internal/server"
)

// rtSample is one read of the runtime metrics the per-layer run reports.
type rtSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
	pauses     *rtm.Float64Histogram
	sched      *rtm.Float64Histogram
}

func sampleRuntime() rtSample {
	ss := []rtm.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	rtm.Read(ss)
	var s rtSample
	if ss[0].Value.Kind() == rtm.KindUint64 {
		s.allocBytes = float64(ss[0].Value.Uint64())
	}
	if ss[1].Value.Kind() == rtm.KindFloat64 {
		s.gcCPU = ss[1].Value.Float64()
	}
	if ss[2].Value.Kind() == rtm.KindFloat64 {
		s.totalCPU = ss[2].Value.Float64()
	}
	if ss[3].Value.Kind() == rtm.KindFloat64Histogram {
		s.pauses = ss[3].Value.Float64Histogram()
	}
	if ss[4].Value.Kind() == rtm.KindFloat64Histogram {
		s.sched = ss[4].Value.Float64Histogram()
	}
	return s
}

// histP returns the p-quantile of the events added between two reads of a
// cumulative runtime histogram, as the upper edge of its bucket (the lower
// edge for the unbounded last bucket), in microseconds.
func histP(a, b *rtm.Float64Histogram, p float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(p * float64(total)))
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= want {
			edge := b.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.Buckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

// counterSample is one read of the front server's cumulative counters.
type counterSample struct {
	admitted, rejected, shedLate, dropped int64
}

func sampleCounters(s *server.Server) counterSample {
	c := s.Counters()
	return counterSample{
		admitted: c.Admitted.Load(),
		rejected: c.RejectedOverload.Load() + c.RejectedPerConn.Load() + c.RejectedDraining.Load(),
		shedLate: c.ShedLate.Load(),
		dropped:  c.DroppedIntermediates.Load(),
	}
}

// perLayerMetrics are the traced run's metrics, in BENCHMARK.json order.
var perLayerMetrics = []string{
	"engine.start_query_us_p50", "engine.snapshot_calls_per_query", "engine.snapshot_unchanged_pct",
	"engine.snapshot_us_p50", "engine.snapshot_us_p99", "engine.snapshot_busy_pct",
	"engine.append_us_p50", "engine.append_us_p99",
	"sharedscan.rows_absorbed_pct_p50", "sharedscan.consumers_mean",
	"server.frames_per_query", "server.bytes_per_query", "server.write_us_p50", "server.write_us_p99",
	"server.dropped_intermediates_per_query", "server.rejected_pct", "server.shed_late_pct",
	"shard.merge_us_p50", "shard.merge_us_p99", "shard.merge_self_us_p50", "shard.fanout_start_us_p50",
	"shard.backend_partial_calls_per_query", "shard.server_snapshot_calls_per_query",
	"shard.server_partial_calls_per_query", "shard.hop_frames_per_query", "shard.hop_bytes_per_query",
	"ingest.apply_us_p50", "ingest.apply_us_p99", "ingest.materialize_self_us_p50", "ingest.queue_ms_p50",
	"durable.log_batch_us_p50", "durable.log_batch_us_p99", "durable.wal_bytes_per_row",
	"runtime.alloc_kb_per_query", "runtime.gc_cpu_pct", "runtime.gc_pause_us_p99", "runtime.sched_latency_us_p99",
	"bench.gen_lag_ms_p99", "bench.trace_overhead_pct",
}

// spanStats groups the recorded spans by name.
type spanStats struct {
	dur      [numSpanKinds][]float64 // microseconds
	self     [numSpanKinds][]float64 // microseconds, children removed
	count    [numSpanKinds]int
	n        [numSpanKinds]int64
	busyNs   [numSpanKinds]int64
	children map[int64][]span
}

func (t *tracer) stats() *spanStats {
	st := &spanStats{children: map[int64][]span{}}
	for _, s := range t.spans {
		if s.parent != 0 {
			st.children[s.parent] = append(st.children[s.parent], s)
		}
	}
	for _, s := range t.spans {
		d := float64(s.end-s.start) / 1e3
		st.dur[s.kind] = append(st.dur[s.kind], d)
		st.count[s.kind]++
		st.n[s.kind] += s.n
		st.busyNs[s.kind] += s.end - s.start
		if kids := st.children[s.id]; len(kids) > 0 {
			st.self[s.kind] = append(st.self[s.kind], float64(selfTime(s, kids))/1e3)
		} else {
			st.self[s.kind] = append(st.self[s.kind], d)
		}
	}
	return st
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, s.start), min(k.end, s.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	open := false
	for _, v := range iv {
		if open && v[0] <= curHi {
			curHi = max(curHi, v[1])
			continue
		}
		if open {
			covered += curHi - curLo
		}
		curLo, curHi, open = v[0], v[1], true
	}
	if open {
		covered += curHi - curLo
	}
	return (s.end - s.start) - covered
}

func orZero(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// layerMetrics computes the per-layer metrics of a traced pass. Spans exist
// only for the scored window, so per-query ratios divide by the queries due
// in it; server counters cover the whole pass. base is the untraced pass of
// the same schedule.
func (t *tracer) layerMetrics(cfg *config, p, base *pass) (map[string]metricJSON, map[string]int) {
	st := t.stats()
	sc, win := p.sc, p.win
	nq := len(sc.scored)
	perQ := func(x float64) float64 { return orZero(x / float64(nq)) }
	pd := func(k spanKind, q float64) float64 { return orZero(metrics.Percentile(st.dur[k], q)) }
	pself := func(k spanKind, q float64) float64 { return orZero(metrics.Percentile(st.self[k], q)) }
	wall := float64(win.end.Sub(win.start))
	snap := engineSpan(layerFront, opSnapshot)
	q := evalQuality(sc.scored, sc.qm)
	issued := float64(len(sc.all))
	c0, c1 := p.c0, p.c1

	out := map[string]metricJSON{}
	set := func(name string, v float64, unit string) { out[name] = metricJSON{orZero(v), unit} }

	set("engine.start_query_us_p50", pd(engineSpan(layerFront, opStart), 0.5), "us")
	set("engine.snapshot_calls_per_query", perQ(float64(st.count[snap])), "count")
	set("engine.snapshot_unchanged_pct", 100*float64(st.n[snap])/float64(st.count[snap]), "%")
	set("engine.snapshot_us_p50", pd(snap, 0.5), "us")
	set("engine.snapshot_us_p99", pd(snap, 0.99), "us")
	set("engine.snapshot_busy_pct", 100*float64(st.busyNs[snap])/(wall*float64(runtime.GOMAXPROCS(0))), "%")
	set("engine.append_us_p50", pd(engineSpan(layerFront, opAppend), 0.5), "us")
	set("engine.append_us_p99", pd(engineSpan(layerFront, opAppend), 0.99), "us")

	set("sharedscan.rows_absorbed_pct_p50", q.rowsAbsorbedPctP50, "%")
	t.cmu.Lock()
	set("sharedscan.consumers_mean", mean(t.consumers), "count")
	t.cmu.Unlock()

	set("server.frames_per_query", perQ(float64(st.count[spanFrontWrite])), "count")
	set("server.bytes_per_query", perQ(float64(st.n[spanFrontWrite])), "bytes")
	set("server.write_us_p50", pd(spanFrontWrite, 0.5), "us")
	set("server.write_us_p99", pd(spanFrontWrite, 0.99), "us")
	set("server.dropped_intermediates_per_query", float64(c1.dropped-c0.dropped)/issued, "count")
	set("server.rejected_pct", 100*float64(c1.rejected-c0.rejected)/issued, "%")
	set("server.shed_late_pct", 100*float64(c1.shedLate-c0.shedLate)/float64(c1.admitted-c0.admitted), "%")

	if cfg.workload == wlSharded {
		set("shard.merge_us_p50", pd(snap, 0.5), "us")
		set("shard.merge_us_p99", pd(snap, 0.99), "us")
		set("shard.merge_self_us_p50", pself(snap, 0.5), "us")
	} else {
		set("shard.merge_us_p50", 0, "us")
		set("shard.merge_us_p99", 0, "us")
		set("shard.merge_self_us_p50", 0, "us")
	}
	set("shard.fanout_start_us_p50", pd(engineSpan(layerBackend, opStart), 0.5), "us")
	set("shard.backend_partial_calls_per_query", perQ(float64(st.count[engineSpan(layerBackend, opPartial)])), "count")
	set("shard.server_snapshot_calls_per_query", perQ(float64(st.count[engineSpan(layerShardServer, opSnapshot)])), "count")
	set("shard.server_partial_calls_per_query", perQ(float64(st.count[engineSpan(layerShardServer, opPartial)])), "count")
	set("shard.hop_frames_per_query", perQ(float64(st.count[spanHopWrite])), "count")
	set("shard.hop_bytes_per_query", perQ(float64(st.n[spanHopWrite])), "bytes")

	set("ingest.apply_us_p50", pd(spanApply, 0.5), "us")
	set("ingest.apply_us_p99", pd(spanApply, 0.99), "us")
	set("ingest.materialize_self_us_p50", pself(spanApply, 0.5), "us")
	var queue []float64
	for _, ir := range sc.ingests {
		queue = append(queue, ms(ir.queue))
	}
	set("ingest.queue_ms_p50", metrics.Percentile(queue, 0.5), "ms")
	set("durable.log_batch_us_p50", pd(spanLog, 0.5), "us")
	set("durable.log_batch_us_p99", pd(spanLog, 0.99), "us")
	walPerRow := 0.0
	if sc.ingestedRows > 0 {
		walPerRow = float64(p.walBytes) / float64(sc.ingestedRows)
	}
	set("durable.wal_bytes_per_row", walPerRow, "bytes")

	r0, r1 := win.rt0, win.rt1
	set("runtime.alloc_kb_per_query", (r1.allocBytes-r0.allocBytes)/1024/float64(len(sc.scored)), "KiB")
	set("runtime.gc_cpu_pct", 100*(r1.gcCPU-r0.gcCPU)/(r1.totalCPU-r0.totalCPU), "%")
	set("runtime.gc_pause_us_p99", histP(r0.pauses, r1.pauses, 0.99), "us")
	set("runtime.sched_latency_us_p99", histP(r0.sched, r1.sched, 0.99), "us")

	set("bench.gen_lag_ms_p99", metrics.Percentile(sc.lagsMs, 0.99), "ms")
	set("bench.trace_overhead_pct", 100*(p.cpuPerQuery()/base.cpuPerQuery()-1), "%")

	counts := map[string]int{
		"engine.start_query_us_p50": st.count[engineSpan(layerFront, opStart)],
		"engine.snapshot_us_p50":    st.count[snap], "engine.snapshot_us_p99": st.count[snap],
		"engine.append_us_p50": st.count[engineSpan(layerFront, opAppend)],
		"engine.append_us_p99": st.count[engineSpan(layerFront, opAppend)],
		"server.write_us_p50":  st.count[spanFrontWrite], "server.write_us_p99": st.count[spanFrontWrite],
		"shard.fanout_start_us_p50": st.count[engineSpan(layerBackend, opStart)],
		"ingest.apply_us_p50":       st.count[spanApply], "ingest.apply_us_p99": st.count[spanApply],
		"durable.log_batch_us_p50": st.count[spanLog], "durable.log_batch_us_p99": st.count[spanLog],
		"sharedscan.rows_absorbed_pct_p50": q.withResult,
		"bench.gen_lag_ms_p99":             len(sc.lagsMs),
		"engine.snapshot_calls_per_query":  nq,
	}
	if len(out) != len(perLayerMetrics) {
		panic(fmt.Sprintf("ideperf: %d per-layer metrics computed, %d declared", len(out), len(perLayerMetrics)))
	}
	for _, k := range perLayerMetrics {
		if _, ok := out[k]; !ok {
			panic("ideperf: per-layer metric " + k + " not computed")
		}
	}
	return out, counts
}
