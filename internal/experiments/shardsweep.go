package experiments

import (
	"fmt"
	"strconv"
	"time"

	"idebench/internal/core"
	"idebench/internal/engine"
	"idebench/internal/engine/progressive"
	"idebench/internal/groundtruth"
	"idebench/internal/report"
	"idebench/internal/shard"
)

// shardSweep replays the same ingest-interleaved multi-user workload over
// (a) a single-node progressive engine ("single", shards 0) and (b) an
// in-process coordinator over N progressive shard backends ("shardN") for
// each N, all against the same generated dataset. Every point gets a fresh
// prepare (ingest mutates the engines) and is gated quiesce-bitwise; the
// in-process coordinator exercises exactly the partition/route/merge/
// min-watermark machinery the multi-process tier serves, minus the wire.
// prepare_ms covers partitioning plus preparing every backend.
func shardSweep(cfg Config, shardCounts []int, users int) ([]report.Point, error) {
	cfg = cfg.withDefaults()
	r, err := newReplay(cfg, users, 29000)
	if err != nil {
		return nil, err
	}
	gt := groundtruth.New(r.db)
	var pts []report.Point
	for _, n := range append([]int{0}, shardCounts...) {
		topology, eng, err := "single", engine.Engine(nil), error(nil)
		if n == 0 {
			eng, err = core.NewEngine("progressive")
		} else {
			topology = fmt.Sprintf("shard%d", n)
			backends := make([]engine.Engine, n)
			for i := range backends {
				backends[i] = progressive.New(progressive.Config{})
			}
			eng, err = shard.NewCoordinator(backends...)
		}
		start := time.Now()
		if err == nil {
			err = eng.Prepare(r.db, engine.Options{Confidence: r.s.Confidence, Seed: r.s.Seed})
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: %s prepare: %w", topology, err)
		}
		prepMS := msSince(start)
		app := engine.CapabilitiesOf(eng).Appender
		h, err := r.harness(app)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", topology, err)
		}
		res, err := r.run(eng, gt, users, h)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s replay: %w", topology, err)
		}
		bitwise, err := quiesceBitwise(cfg.Out, eng, app, h)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s quiesce: %w", topology, err)
		}
		m := replayMetrics(res)
		m["prepare_ms"] = prepMS
		m["ingested_rows"] = float64(h.IngestedRows())
		m["quiesce_bitwise"] = report.BoolMetric(bitwise)
		pts = append(pts, report.Point{
			Labels:  map[string]string{"topology": topology, "shards": strconv.Itoa(n), "users": strconv.Itoa(users)},
			Metrics: m,
			Gates:   map[string]bool{"quiesce_bitwise": bitwise},
		})
	}
	return pts, nil
}
