package report

import (
	"sort"
	"strconv"
	"time"

	"idebench/internal/driver"
	"idebench/internal/metrics"
)

// groupByDriverUsers calls each once per (driver, users) group of records,
// in driver then user-count order. Records written before the multi-user
// driver existed (users == 0 in old CSVs) count as single-user.
func groupByDriverUsers(records []driver.Record, each func(drv string, users int, recs []driver.Record)) {
	type key struct {
		driver string
		users  int
	}
	groups := map[key][]driver.Record{}
	for _, r := range records {
		k := key{r.Driver, max(r.Users, 1)}
		groups[k] = append(groups[k], r)
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].driver != keys[j].driver {
			return keys[i].driver < keys[j].driver
		}
		return keys[i].users < keys[j].users
	})
	for _, k := range keys {
		each(k.driver, k.users, groups[k])
	}
}

// SummarizeUsers is the user-scalability report, the multi-user analogue of
// the paper's Fig. 5 row: instead of sweeping the time requirement it
// sweeps how many simulated analysts share one engine. It returns one point
// per (driver, users) group, labelled engine and users, sorted by driver
// then user count, with these metrics:
//
//   - queries, and tr_violated_pct: the share cancelled at the deadline;
//   - wall_clock_ms: the group's span, first query issued to last result
//     fetched, and queries_per_sec: the aggregate throughput over it;
//   - p50_ms, p95_ms, p99_ms: driver-observed query latency (a cancelled
//     query's latency is the time requirement);
//   - speedup_vs_1user: queries_per_sec over the same driver's 1-user group
//     (0 without one). >1 means concurrent users get more total work done
//     per second than a lone user — on a shared-scan engine because N
//     users' queries ride one memory sweep.
func SummarizeUsers(records []driver.Record) []Point {
	base := map[string]float64{} // driver -> 1-user throughput
	var out []Point
	groupByDriverUsers(records, func(drv string, users int, recs []driver.Record) {
		var first, last time.Time
		lats := make([]float64, 0, len(recs))
		violated := 0
		for i, r := range recs {
			if i == 0 || r.StartTime.Before(first) {
				first = r.StartTime
			}
			if i == 0 || r.EndTime.After(last) {
				last = r.EndTime
			}
			lats = append(lats, r.LatencyMS())
			if r.Metrics.TRViolated {
				violated++
			}
		}
		wallMS := float64(last.Sub(first)) / float64(time.Millisecond)
		qps, speedup := 0.0, 0.0
		if wallMS > 0 {
			qps = float64(len(recs)) / (wallMS / 1000)
		}
		if users == 1 {
			base[drv] = qps
		}
		if b := base[drv]; b > 0 {
			speedup = qps / b
		}
		lat := metrics.SummarizeLatencies(lats)
		out = append(out, Point{Labels: engineUsers(drv, users), Metrics: map[string]float64{
			"queries":          float64(len(recs)),
			"tr_violated_pct":  100 * float64(violated) / float64(len(recs)),
			"wall_clock_ms":    wallMS,
			"queries_per_sec":  qps,
			"p50_ms":           lat.P50,
			"p95_ms":           lat.P95,
			"p99_ms":           lat.P99,
			"speedup_vs_1user": speedup,
		}})
	})
	return out
}

func engineUsers(drv string, users int) map[string]string {
	return map[string]string{"engine": drv, "users": strconv.Itoa(users)}
}
