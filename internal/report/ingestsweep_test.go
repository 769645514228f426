package report

import (
	"bytes"
	"math"
	"testing"

	"idebench/internal/driver"
	"idebench/internal/metrics"
)

// ingestRecord fabricates one record with a given staleness (negative =
// undefined, the non-ingest sentinel).
func ingestRecord(drv string, users int, staleness float64, violated bool) driver.Record {
	m := metrics.QueryMetrics{HasResult: !violated, TRViolated: violated, StalenessRows: staleness}
	return driver.Record{Driver: drv, Users: users, Metrics: m}
}

func TestSummarizeIngestStaleness(t *testing.T) {
	recs := []driver.Record{
		ingestRecord("prog", 2, 0, false),
		ingestRecord("prog", 2, 0, false),
		ingestRecord("prog", 2, 100, false),
		ingestRecord("prog", 2, 300, false),
		ingestRecord("prog", 2, -1, true), // violated: no staleness sample
		ingestRecord("exact", 2, 500, false),
	}
	rows := SummarizeIngest(recs)
	if len(rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(rows))
	}
	// Sorted by driver: exact first.
	if rows[0].Labels["engine"] != "exact" || rows[1].Labels["engine"] != "prog" {
		t.Fatalf("group order: %v, %v", rows[0].Labels, rows[1].Labels)
	}
	p := rows[1].Metrics
	if p["queries"] != 5 || p["tr_violated_pct"] != 20 {
		t.Errorf("prog queries=%v violated=%v", p["queries"], p["tr_violated_pct"])
	}
	if p["staleness_mean_rows"] != 100 { // (0+0+100+300)/4
		t.Errorf("mean staleness = %v, want 100", p["staleness_mean_rows"])
	}
	// P95 uses the same interpolated definition as the latency columns
	// (metrics.Percentile): rank 0.95*(4-1)=2.85 → 100 + 0.85*(300-100).
	if p["staleness_max_rows"] != 300 || math.Abs(p["staleness_p95_rows"]-270) > 1e-9 {
		t.Errorf("staleness p95=%v max=%v, want 270/300", p["staleness_p95_rows"], p["staleness_max_rows"])
	}
	if p["fresh_pct"] != 50 {
		t.Errorf("fresh%% = %v, want 50", p["fresh_pct"])
	}
}

func TestSummarizeIngestNoSamples(t *testing.T) {
	rows := SummarizeIngest([]driver.Record{ingestRecord("x", 1, -1, false)})
	if len(rows) != 1 {
		t.Fatalf("groups = %d", len(rows))
	}
	if m := rows[0].Metrics; !math.IsNaN(m["staleness_mean_rows"]) || !math.IsNaN(m["fresh_pct"]) {
		t.Errorf("staleness stats over no samples should be NaN: %+v", m)
	}
}

// TestRenderIngestSweepGolden pins the ingest sweep table, including a
// point with no staleness samples and one lacking a metric.
func TestRenderIngestSweepGolden(t *testing.T) {
	pts := SummarizeIngest([]driver.Record{
		ingestRecord("exactdb", 1, 0, false),
		ingestRecord("exactdb", 1, 250.5, false),
		ingestRecord("exactdb", 1, -1, true),
		ingestRecord("progressive", 2, -1, false),
	})
	pts[0].Metrics["ingested_rows"] = 8000
	var buf bytes.Buffer
	if err := RenderPoints(&buf, pts); err != nil {
		t.Fatal(err)
	}
	golden := "" +
		"engine       users  fresh_pct  ingested_rows  queries  staleness_max_rows  staleness_mean_rows  staleness_p95_rows  tr_violated_pct\n" +
		"exactdb      1      50         8000           3        250.50              125.25               237.97              33.33\n" +
		"progressive  2      -          -              1        -                   -                    -                   0\n"
	if got := buf.String(); got != golden {
		t.Errorf("ingest sweep table drifted:\n got:\n%s\nwant:\n%s", got, golden)
	}
}
