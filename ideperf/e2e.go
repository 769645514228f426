package main

import (
	"math"

	"idebench/internal/metrics"
)

// e2eMetrics are the end-to-end metrics of the JSON line, in
// BENCHMARK.json order: the ones every workload reports that hold steady
// from run to run on a shared 2-vCPU host. The rest of the end-to-end
// metrics are printed on the "#" lines (see README.md for why each is not
// gated).
var e2eMetrics = []string{"setup_s", "missing_bins_pct", "mem_peak_mb"}

func (r *record) failed() bool { return r.dropped || r.startErr || r.rejected || r.errored }

// mean is the mean of the non-NaN values (NaN when there are none).
func mean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if !math.IsNaN(x) {
			s += x
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// quality aggregates the paper's quality metrics over a set of scored
// queries: violation share, missing bins (a violation counts as 100%), and
// the mean relative error and cosine distance of the queries that have a
// result.
type quality struct {
	n                  int
	violPct, missPct   float64
	relErr, cosine     float64
	withResult         int
	finals             []float64
	rowsAbsorbedPctP50 float64
}

func evalQuality(recs []*record, qm []metrics.QueryMetrics) quality {
	var q quality
	var miss, rel, cos, absorbed []float64
	viol := 0
	for i, r := range recs {
		q.n++
		m := qm[i]
		if r.res == nil {
			viol++
		} else {
			q.withResult++
			rel = append(rel, m.RelErrAvg)
			cos = append(cos, m.CosineDistance)
			if r.res.TotalRows > 0 {
				absorbed = append(absorbed, 100*float64(r.res.RowsSeen)/float64(r.res.TotalRows))
			}
		}
		miss = append(miss, m.MissingBins)
		if r.completed {
			q.finals = append(q.finals, ms(r.final))
		}
	}
	if q.n > 0 {
		q.violPct = 100 * float64(viol) / float64(q.n)
	}
	q.missPct = 100 * mean(miss)
	q.relErr = mean(rel)
	q.cosine = mean(cos)
	q.rowsAbsorbedPctP50 = metrics.Percentile(absorbed, 0.5)
	return q
}

// e2e computes every end-to-end metric of an untraced run: the JSON set,
// the printed-only rest, and the sample count behind each.
func (p *pass) e2e() (out, extra map[string]metricJSON, counts map[string]int) {
	sc := p.sc
	q := evalQuality(sc.scored, sc.qm)
	var setup []float64
	for _, d := range sc.setup {
		setup = append(setup, d.Seconds())
	}
	all := map[string]metricJSON{
		"setup_s":              {metrics.Percentile(setup, 0.5), "s"},
		"cpu_ms_per_query":     {p.cpuPerQuery(), "ms"},
		"mem_peak_mb":          {p.win.peakRSSMB, "MiB"},
		"final_p50_ms":         {metrics.Percentile(q.finals, 0.5), "ms"},
		"final_p99_ms":         {metrics.Percentile(q.finals, 0.99), "ms"},
		"tr_violation_pct":     {q.violPct, "%"},
		"missing_bins_pct":     {q.missPct, "%"},
		"rel_error_mean":       {q.relErr, "ratio"},
		"cosine_distance_mean": {q.cosine, "ratio"},
		"failed_pct":           {100 * float64(sc.failed) / float64(sc.attempted), "%"},
		"gen_lag_ms_p99":       {metrics.Percentile(sc.lagsMs, 0.99), "ms"},
	}
	counts = map[string]int{
		"setup_s": len(sc.setup), "cpu_ms_per_query": len(sc.scored),
		"final_p50_ms": len(q.finals), "final_p99_ms": len(q.finals),
		"tr_violation_pct": q.n, "missing_bins_pct": q.n,
		"rel_error_mean": q.withResult, "cosine_distance_mean": q.withResult,
		"failed_pct": int(sc.attempted), "gen_lag_ms_p99": len(sc.lagsMs),
	}
	if len(sc.ingests) > 0 {
		var acks, stale []float64
		for _, ir := range sc.ingests {
			if !ir.failed {
				acks = append(acks, ms(ir.ack))
			}
		}
		for _, r := range sc.scored {
			if r.res != nil {
				stale = append(stale, float64(r.snapLive-r.res.Watermark))
			}
		}
		all["ingest_ack_p50_ms"] = metricJSON{metrics.Percentile(acks, 0.5), "ms"}
		all["ingest_ack_p99_ms"] = metricJSON{metrics.Percentile(acks, 0.99), "ms"}
		all["staleness_rows_mean"] = metricJSON{mean(stale), "rows"}
		counts["ingest_ack_p50_ms"], counts["ingest_ack_p99_ms"] = len(acks), len(acks)
		counts["staleness_rows_mean"] = len(stale)
	}
	out, extra = map[string]metricJSON{}, map[string]metricJSON{}
	for k, v := range all {
		extra[k] = v
	}
	for _, k := range e2eMetrics {
		out[k] = all[k]
		delete(extra, k)
	}
	return out, extra, counts
}
