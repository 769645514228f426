package report

import (
	"math"
	"sort"

	"idebench/internal/driver"
	"idebench/internal/metrics"
)

// SummarizeIngest is the live-ingestion report: how each (driver, users)
// group behaved while append-only batches landed during the replay. It
// returns one point per group, labelled engine and users, sorted by driver
// then user count, with queries, tr_violated_pct and the staleness
// distribution over delivered results in rows behind the live table at
// fetch time: staleness_mean_rows, staleness_p95_rows, staleness_max_rows
// and fresh_pct, the share answered at the newest data version. Records
// with negative staleness (nothing delivered, or a non-ingest run) are
// excluded from the staleness stats, which are NaN without samples, but
// still counted as queries.
func SummarizeIngest(records []driver.Record) []Point {
	var out []Point
	groupByDriverUsers(records, func(drv string, users int, recs []driver.Record) {
		violated := 0
		var stale []float64
		fresh := 0
		for _, r := range recs {
			if r.Metrics.TRViolated {
				violated++
			}
			if s := r.Metrics.StalenessRows; s >= 0 {
				stale = append(stale, s)
				if s == 0 {
					fresh++
				}
			}
		}
		m := map[string]float64{
			"queries":             float64(len(recs)),
			"tr_violated_pct":     100 * float64(violated) / float64(len(recs)),
			"staleness_mean_rows": math.NaN(),
			"staleness_p95_rows":  math.NaN(),
			"staleness_max_rows":  math.NaN(),
			"fresh_pct":           math.NaN(),
		}
		if len(stale) > 0 {
			sort.Float64s(stale)
			var sum float64
			for _, s := range stale {
				sum += s
			}
			m["staleness_mean_rows"] = sum / float64(len(stale))
			m["staleness_p95_rows"] = metrics.PercentileSorted(stale, 0.95)
			m["staleness_max_rows"] = stale[len(stale)-1]
			m["fresh_pct"] = 100 * float64(fresh) / float64(len(stale))
		}
		out = append(out, Point{Labels: engineUsers(drv, users), Metrics: m})
	})
	return out
}
