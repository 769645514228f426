package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"idebench/internal/core"
	"idebench/internal/driver"
	"idebench/internal/engine"
	"idebench/internal/groundtruth"
	"idebench/internal/report"
)

// userSweep measures multi-user scaling (the ROADMAP's "serve many users"
// axis): for each engine and each user count U of cfg.Users it replays U
// mixed workflows as U concurrent simulated users over one prepared engine,
// and the same U workflows sequentially on one session as the baseline.
// Engines default to progressive (shared scans: users amortize memory
// sweeps) vs exactdb (independent parallel scans: users compete), the
// contrast the shared-scan scheduler was built for. On a shared-scan engine
// concurrent users overlap both their think times and their memory sweeps,
// so speedup_vs_sequential should exceed 1 well before perfect scaling.
func userSweep(cfg Config) ([]report.Point, error) {
	engines := sweepEngines(cfg)
	cfg = cfg.withDefaults()
	r, err := newReplay(cfg, slices.Max(cfg.Users), 9000)
	if err != nil {
		return nil, err
	}
	var allRecords []driver.Record
	// Keyed by Engine.Name()/users — the labels records carry and
	// SummarizeUsers groups by — not the registry name used to construct the
	// engine.
	seqMS := map[string]float64{}
	seen := map[string]string{}
	for _, name := range engines {
		p, err := core.Prepare(name, r.db, r.s)
		if err != nil {
			return nil, err
		}
		drv := p.Engine.Name()
		if err := claimDriver(seen, drv, name); err != nil {
			return nil, err
		}
		for _, users := range cfg.Users {
			// The concurrent run goes first: its untimed prepass warms the
			// ground-truth cache the sequential baseline then reads.
			res, err := r.run(p.Engine, p.GT, users, nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s users=%d: %w", name, users, err)
			}
			seq, err := r.sequentialMS(p.Engine, p.GT, users)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s users=%d sequential: %w", name, users, err)
			}
			allRecords = append(allRecords, res.Records...)
			seqMS[drv+"/"+strconv.Itoa(users)] = seq
		}
	}
	// One aggregation over every point's records: SummarizeUsers groups by
	// (driver, users) and derives speedup_vs_1user against each driver's
	// 1-user baseline. The sequential baseline ratios against the same
	// wall-clock the point reports, keeping the artifact self-consistent.
	pts := report.SummarizeUsers(allRecords)
	for _, pt := range pts {
		m := pt.Metrics
		m["sequential_ms"] = seqMS[pt.Labels["engine"]+"/"+pt.Labels["users"]]
		m["speedup_vs_sequential"] = 0
		if m["wall_clock_ms"] > 0 {
			m["speedup_vs_sequential"] = m["sequential_ms"] / m["wall_clock_ms"]
		}
	}
	return pts, nil
}

// sequentialMS is the baseline: one analyst replays the first users
// workflows back-to-back on one session against the already-warm
// ground-truth cache, with precomputation off, so the timed window contains
// engine work only and the speedup compares like with like.
func (r *replay) sequentialMS(eng engine.Engine, gt *groundtruth.Cache, users int) (float64, error) {
	noWarm := false
	cfg := r.driverConfig()
	cfg.PrecomputeGroundTruth = &noWarm
	start := time.Now()
	if _, err := driver.New(eng, gt, cfg).RunWorkflows(r.plain[:users]); err != nil {
		return 0, err
	}
	return msSince(start), nil
}
