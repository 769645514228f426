package report

import (
	"bytes"
	"math"
	"testing"
	"time"

	"idebench/internal/driver"
	"idebench/internal/metrics"
)

// sweepRecord fabricates one record with a fixed latency on a fixed
// timeline, so throughput and percentiles are exactly computable.
func sweepRecord(drv string, users, user int, startMS, latencyMS float64, violated bool) driver.Record {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	start := base.Add(time.Duration(startMS * float64(time.Millisecond)))
	m := metrics.QueryMetrics{HasResult: !violated, TRViolated: violated}
	return driver.Record{
		Driver: drv, Users: users, User: user,
		StartTime: start,
		EndTime:   start.Add(time.Duration(latencyMS * float64(time.Millisecond))),
		Metrics:   m,
	}
}

func TestSummarizeUsersThroughputAndPercentiles(t *testing.T) {
	var recs []driver.Record
	// 1-user group: 4 queries over exactly 2000ms of timeline.
	recs = append(recs,
		sweepRecord("prog", 1, 0, 0, 100, false),
		sweepRecord("prog", 1, 0, 500, 100, false),
		sweepRecord("prog", 1, 0, 1000, 100, false),
		sweepRecord("prog", 1, 0, 1900, 100, false),
	)
	// 2-user group: 8 queries over the same 2000ms → twice the throughput;
	// one TR violation whose latency (the TR) still counts in percentiles.
	for u := 0; u < 2; u++ {
		for i := 0; i < 4; i++ {
			violated := u == 1 && i == 3
			lat := 50.0
			if violated {
				lat = 400
			}
			recs = append(recs, sweepRecord("prog", 2, u, float64(i)*500, lat, violated))
		}
	}
	// The 2-user group must span the same wall-clock as the 1-user group.
	recs[len(recs)-1].EndTime = recs[3].EndTime

	rows := SummarizeUsers(recs)
	if len(rows) != 2 {
		t.Fatalf("got %d groups, want 2", len(rows))
	}
	one, two := rows[0].Metrics, rows[1].Metrics
	if rows[0].Labels["users"] != "1" || rows[1].Labels["users"] != "2" || rows[1].Labels["engine"] != "prog" {
		t.Fatalf("group order or labels wrong: %+v", rows)
	}
	if one["queries"] != 4 || two["queries"] != 8 {
		t.Fatalf("query counts wrong: %v, %v", one["queries"], two["queries"])
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"1-user wall clock", one["wall_clock_ms"], 2000},
		{"1-user throughput", one["queries_per_sec"], 2},
		{"2-user throughput", two["queries_per_sec"], 4},
		{"speedup vs 1 user", two["speedup_vs_1user"], 2},
		{"violation pct", two["tr_violated_pct"], 12.5},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s %v, want %v", c.name, c.got, c.want)
		}
	}
	if one["p50_ms"] != 100 {
		t.Errorf("1-user P50 %v, want 100", one["p50_ms"])
	}
	// 7×50ms + 1×400ms: the violated query's deadline latency dominates the
	// tail but not the median.
	if two["p50_ms"] != 50 {
		t.Errorf("2-user P50 %v, want 50", two["p50_ms"])
	}
	if two["p99_ms"] <= two["p50_ms"] {
		t.Errorf("tail percentile %v should exceed the median %v", two["p99_ms"], two["p50_ms"])
	}
}

// TestSummarizeUsersLegacyRecords: records from before the multi-user
// driver (Users == 0 in old CSVs) must fold into the 1-user group.
func TestSummarizeUsersLegacyRecords(t *testing.T) {
	recs := []driver.Record{
		sweepRecord("x", 0, 0, 0, 10, false),
		sweepRecord("x", 1, 0, 100, 10, false),
	}
	rows := SummarizeUsers(recs)
	if len(rows) != 1 || rows[0].Labels["users"] != "1" || rows[0].Metrics["queries"] != 2 {
		t.Fatalf("legacy records not folded into the 1-user group: %+v", rows)
	}
}

// TestRenderUserSweepGolden pins the exact table the user sweep prints:
// label columns, then metric columns, each sorted by key; whole numbers
// without decimals, NaN latencies as "-".
func TestRenderUserSweepGolden(t *testing.T) {
	point := func(engine, users string, queries, qps, p50, p95, p99, speedup float64) Point {
		return Point{Labels: map[string]string{"engine": engine, "users": users}, Metrics: map[string]float64{
			"queries": queries, "queries_per_sec": qps, "p50_ms": p50, "p95_ms": p95, "p99_ms": p99, "speedup_vs_1user": speedup,
		}}
	}
	pts := []Point{
		point("exactdb", "1", 40, 49.2, 3.21, 11.08, 12.4, 0),
		point("progressive", "8", 320, 290.8, 2.75, 9.5, 14.125, 5.09),
		point("empty", "2", 0, 0, math.NaN(), math.NaN(), math.NaN(), 0),
	}
	var buf bytes.Buffer
	if err := RenderPoints(&buf, pts); err != nil {
		t.Fatal(err)
	}
	const golden = "" +
		"engine       users  p50_ms  p95_ms  p99_ms  queries  queries_per_sec  speedup_vs_1user\n" +
		"exactdb      1      3.21    11.08   12.40   40       49.20            0\n" +
		"progressive  8      2.75    9.50    14.12   320      290.80           5.09\n" +
		"empty        2      -       -       -       0        0                0\n"
	if got := buf.String(); got != golden {
		t.Errorf("user-sweep table drifted from golden output:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}
