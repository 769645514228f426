package experiments

import (
	"fmt"
	"slices"
	"strconv"

	"idebench/internal/core"
	"idebench/internal/driver"
	"idebench/internal/engine"
	"idebench/internal/report"
)

// IngestEvery is how many workflow interactions separate consecutive
// ingest events in the generated ingest-aware workload.
const IngestEvery = 3

// ingestSweep measures ingestion-under-load scaling. For each engine and
// user count U of cfg.Users it replays U mixed workflows, each with an
// ingest event every IngestEvery interactions, as U concurrent users over
// one freshly prepared engine (appends mutate the engine, so points never
// share one), evaluating every result against the ground truth of the data
// version its watermark names. Each point's quiesce_bitwise gate requires
// the engine to have absorbed every batch and to answer a COUNT query
// bitwise identically to the final table's exact scan — the incremental
// path may not drift from a cold rebuild by even one row.
func ingestSweep(cfg Config) ([]report.Point, error) {
	engines := sweepEngines(cfg)
	cfg = cfg.withDefaults()
	r, err := newReplay(cfg, slices.Max(cfg.Users), 17000)
	if err != nil {
		return nil, err
	}
	type stat struct {
		wallMS, ingested float64
		bitwise          bool
	}
	stats := map[string]stat{} // keyed like userSweep's seqMS
	var allRecords []driver.Record
	seen := map[string]string{}
	for _, name := range engines {
		for _, users := range cfg.Users {
			p, err := core.Prepare(name, r.db, r.s)
			if err != nil {
				return nil, err
			}
			drv := p.Engine.Name()
			if err := claimDriver(seen, drv, name); err != nil {
				return nil, err
			}
			app := engine.CapabilitiesOf(p.Engine).Appender
			h, err := r.harness(app)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", name, err)
			}
			res, err := r.run(p.Engine, p.GT, users, h)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s users=%d: %w", name, users, err)
			}
			bitwise, err := quiesceBitwise(cfg.Out, p.Engine, app, h)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s users=%d quiesce: %w", name, users, err)
			}
			allRecords = append(allRecords, res.Records...)
			stats[drv+"/"+strconv.Itoa(users)] = stat{durMS(res.WallClock), float64(h.IngestedRows()), bitwise}
		}
	}

	pts := report.SummarizeIngest(allRecords)
	for i, pt := range pts {
		st, m := stats[pt.Labels["engine"]+"/"+pt.Labels["users"]], pt.Metrics
		// Schema-1 artifacts never recorded the staleness p95.
		delete(m, "staleness_p95_rows")
		m["wall_clock_ms"] = st.wallMS
		m["ingested_rows"] = st.ingested
		m["queries_per_sec"], m["ingest_rows_per_sec"] = 0, 0
		// Throughput is divided by the replay window only, like every other
		// sweep's numbers.
		if st.wallMS > 0 {
			m["queries_per_sec"] = m["queries"] / (st.wallMS / 1000)
			m["ingest_rows_per_sec"] = st.ingested / (st.wallMS / 1000)
		}
		m["quiesce_bitwise"] = report.BoolMetric(st.bitwise)
		pts[i].Gates = map[string]bool{"quiesce_bitwise": st.bitwise}
	}
	return pts, nil
}
