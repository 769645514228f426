package experiments

import (
	"fmt"
	"strconv"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/engine/progressive"
	"idebench/internal/groundtruth"
	"idebench/internal/ingest"
	"idebench/internal/query"
	"idebench/internal/report"
	"idebench/internal/shard"
)

// elasticSweep replays the same multi-user workload against a fresh
// 2-partition × 2-replica coordinator per scenario, killing the scenario's
// replicas before the run: "all_up"; "replica_dead" (one replica of one
// partition killed; its sibling covers); "partition_dead" (every replica of
// one partition killed; answers degrade to the surviving partitions'
// population). A replay error fails the sweep — a dead replica must cost
// latency, never a failed query. The coverage gate requires a post-replay
// probe's coverage to be exactly what the injected failure predicts; the
// quiesce_bitwise gate holds every fully-covered point to the quiesce
// check, while degraded points are exempt (recorded false) — their answers
// are honest about missing rows via the coverage metrics, not
// bitwise-complete. The dead-partition scenario replays without ingest:
// its partition cannot absorb batches.
func elasticSweep(cfg Config, users int) ([]report.Point, error) {
	const parts, reps = 2, 2
	cfg = cfg.withDefaults()
	r, err := newReplay(cfg, users, 31000)
	if err != nil {
		return nil, err
	}

	type scenario struct {
		name   string
		kills  [][2]int // (partition, replica ordinal) to kill before the replay
		ingest bool
	}
	scenarios := []scenario{
		{name: "all_up", ingest: true},
		{name: "replica_dead", kills: [][2]int{{0, 1}}, ingest: true},
		{name: "partition_dead", kills: [][2]int{{0, 0}, {0, 1}}},
	}

	gt := groundtruth.New(r.db)
	var pts []report.Point
	for _, sc := range scenarios {
		// Fresh tier per scenario: kills and ingest both mutate state.
		faults := make([][]*shard.Faulty, parts)
		sets := make([][]engine.Engine, parts)
		for p := range sets {
			faults[p] = make([]*shard.Faulty, reps)
			sets[p] = make([]engine.Engine, reps)
			for i := range sets[p] {
				faults[p][i] = shard.NewFaulty(progressive.New(progressive.Config{}))
				sets[p][i] = faults[p][i]
			}
		}
		co, err := shard.NewReplicated(shard.Options{}, sets...)
		if err != nil {
			return nil, err
		}
		prepStart := time.Now()
		if err := co.Prepare(r.db, engine.Options{Confidence: r.s.Confidence, Seed: r.s.Seed}); err != nil {
			return nil, fmt.Errorf("experiments: %s prepare: %w", sc.name, err)
		}
		prepMS := msSince(prepStart)
		for _, k := range sc.kills {
			faults[k[0]][k[1]].Kill()
		}
		// Health loop, as the serving tier runs it: the first pass marks the
		// kills before the replay starts, later passes keep flags honest.
		co.CheckHealth()
		stopHealth := co.StartHealthLoop(100 * time.Millisecond)

		app := engine.CapabilitiesOf(co).Appender
		var h *ingest.Harness
		if sc.ingest {
			if h, err = r.harness(app); err != nil {
				stopHealth()
				return nil, err
			}
		}
		res, err := r.run(co, gt, users, h)
		stopHealth()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s replay: %w", sc.name, err)
		}

		probe, err := runToCompletion(co, &query.Query{
			VizName: "coverage_count", Table: r.db.Fact.Name,
			Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
			Aggs: []query.Aggregate{{Func: query.Count}},
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s probe: %w", sc.name, err)
		}
		answered, total, fraction, degraded := parts, parts, 1.0, false
		if cov := probe.Coverage; cov != nil && !cov.Full() {
			answered, total, fraction, degraded = cov.PartitionsAnswered, cov.PartitionsTotal, cov.PopulationFraction, cov.Degraded
		}
		bitwise, ingested := false, 0.0
		if sc.ingest {
			ingested = float64(h.IngestedRows())
			if bitwise, err = quiesceBitwise(cfg.Out, co, app, h); err != nil {
				return nil, fmt.Errorf("experiments: %s quiesce: %w", sc.name, err)
			}
		}
		// The injected failure predicts the coverage exactly: only the
		// dead-partition scenario may (and must) degrade, by one partition.
		wantAnswered := parts
		if !sc.ingest {
			wantAnswered = parts - 1
		}
		m := replayMetrics(res)
		m["prepare_ms"] = prepMS
		m["partitions_answered"] = float64(answered)
		m["partitions_total"] = float64(total)
		m["population_fraction"] = fraction
		m["degraded"] = report.BoolMetric(degraded)
		m["ingested_rows"] = ingested
		m["quiesce_bitwise"] = report.BoolMetric(bitwise)
		pts = append(pts, report.Point{
			Labels: map[string]string{
				"scenario": sc.name, "partitions": strconv.Itoa(parts), "replicas_per_partition": strconv.Itoa(reps),
				"dead_replicas": strconv.Itoa(len(sc.kills)), "users": strconv.Itoa(users),
			},
			Metrics: m,
			Gates: map[string]bool{
				"coverage":        answered == wantAnswered && degraded == (wantAnswered < parts),
				"quiesce_bitwise": degraded || bitwise,
			},
		})
	}
	return pts, nil
}
