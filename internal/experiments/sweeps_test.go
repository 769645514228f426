package experiments

import (
	"bytes"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"idebench/internal/report"
)

// TestSweeps runs every registered sweep on reduced axes through the shared
// runner, which fails the row on any failed gate (quiesce-bitwise, coverage,
// overload survival, warm restart). Each row pins the sweep's BENCH keys —
// labels plus metrics, as the schema-1 artifacts named them — and checks
// the sweep's own contract.
func TestSweeps(t *testing.T) {
	small := Config{
		Rows: 4000, WorkflowsPerType: 1, Interactions: 6,
		TRs: []time.Duration{40 * time.Millisecond}, Seed: 1,
	}
	quick := quickCfg(nil)
	quick.Users = []int{1, 2}
	rows := []struct {
		name string
		cfg  Config
		// run replaces the registry's axes when set.
		run   func(Config) ([]report.Point, error)
		keys  string
		check func(t *testing.T, pts []report.Point, out string)
	}{
		{
			name: "users", cfg: quick,
			keys: "engine p50_ms p95_ms p99_ms queries queries_per_sec sequential_ms speedup_vs_1user speedup_vs_sequential tr_violated_pct users wall_clock_ms",
			check: func(t *testing.T, pts []report.Point, out string) {
				// quickCfg names both engines explicitly, so the sweep honours the list.
				if len(pts) != 4 {
					t.Fatalf("got %d points, want 2 engines × 2 user counts", len(pts))
				}
				queries := map[string]float64{}
				for _, p := range pts {
					m, at := p.Metrics, report.LabelString(p.Labels)
					if m["queries"] == 0 || m["queries_per_sec"] <= 0 {
						t.Errorf("%s: no queries or throughput: %v", at, m)
					}
					if p.Labels["users"] == "2" && m["speedup_vs_1user"] == 0 {
						t.Errorf("%s: missing speedup vs the 1-user baseline", at)
					}
					if m["sequential_ms"] <= 0 || m["speedup_vs_sequential"] <= 0 {
						t.Errorf("%s: missing sequential baseline: %v", at, m)
					}
					queries[p.Labels["engine"]+"/"+p.Labels["users"]] = m["queries"]
				}
				// 2 concurrent users replay 2 workflows; each user handles one,
				// so the 2-user group must hold both workflows' queries.
				for _, eng := range []string{"exactdb", "progressive"} {
					if one, two := queries[eng+"/1"], queries[eng+"/2"]; two <= one {
						t.Errorf("%s: 2-user run (%v queries) should replay more than the 1-user run (%v)", eng, two, one)
					}
				}
				if !strings.Contains(out, "User scalability") || !strings.Contains(out, "speedup_vs_sequential") {
					t.Errorf("sweep output missing sections:\n%s", out)
				}
			},
		},
		{
			name: "ingest", cfg: quick,
			keys: "engine fresh_pct ingest_rows_per_sec ingested_rows queries queries_per_sec quiesce_bitwise staleness_max_rows staleness_mean_rows tr_violated_pct users wall_clock_ms",
			check: func(t *testing.T, pts []report.Point, out string) {
				if len(pts) != 4 {
					t.Fatalf("got %d points, want 2 engines × 2 user counts", len(pts))
				}
				for _, p := range pts {
					m, at := p.Metrics, report.LabelString(p.Labels)
					if m["queries"] == 0 || m["ingested_rows"] == 0 || m["ingest_rows_per_sec"] <= 0 {
						t.Errorf("%s: no queries, ingest or ingest throughput: %v", at, m)
					}
					if !p.Gates["quiesce_bitwise"] || m["quiesce_bitwise"] != 1 {
						t.Errorf("%s: quiesce bitwise gate not passed: %+v", at, p)
					}
				}
				if !strings.Contains(out, "Live ingestion") || !strings.Contains(out, "quiesce_bitwise") {
					t.Errorf("sweep output missing sections:\n%s", out)
				}
			},
		},
		{
			name: "shards", cfg: small,
			run:  func(cfg Config) ([]report.Point, error) { return shardSweep(cfg, []int{2, 3}, 2) },
			keys: "ingested_rows p50_ms p95_ms p99_ms prepare_ms queries queries_per_sec quiesce_bitwise shards topology tr_violated_pct users wall_clock_ms",
			check: func(t *testing.T, pts []report.Point, _ string) {
				var topologies []string
				for _, p := range pts {
					topologies = append(topologies, p.Labels["topology"]+"/"+p.Labels["shards"])
					if !p.Gates["quiesce_bitwise"] {
						t.Fatalf("%s: quiesce-bitwise gate failed: %+v", p.Labels["topology"], p)
					}
					if p.Metrics["queries"] == 0 || p.Metrics["queries_per_sec"] <= 0 || p.Metrics["ingested_rows"] == 0 {
						t.Fatalf("%s: no throughput or ingest measured: %+v", p.Labels["topology"], p)
					}
				}
				if got := strings.Join(topologies, " "); got != "single/0 shard2/2 shard3/3" {
					t.Fatalf("topologies %q, want single + shard2 + shard3", got)
				}
			},
		},
		{
			name: "elastic", cfg: small,
			run:  func(cfg Config) ([]report.Point, error) { return elasticSweep(cfg, 2) },
			keys: "dead_replicas degraded ingested_rows p50_ms p95_ms p99_ms partitions partitions_answered partitions_total population_fraction prepare_ms queries queries_per_sec quiesce_bitwise replicas_per_partition scenario tr_violated_pct users wall_clock_ms",
			check: func(t *testing.T, pts []report.Point, _ string) {
				if len(pts) != 3 {
					t.Fatalf("got %d points, want all_up + replica_dead + partition_dead", len(pts))
				}
				byName := map[string]report.Point{}
				for _, p := range pts {
					byName[p.Labels["scenario"]] = p
					if p.Metrics["queries"] == 0 {
						t.Fatalf("%s: replay answered no queries: %+v", p.Labels["scenario"], p)
					}
				}
				for _, name := range []string{"all_up", "replica_dead"} {
					m := byName[name].Metrics
					if m["degraded"] != 0 || m["partitions_answered"] != 2 || m["population_fraction"] != 1 {
						t.Fatalf("%s: expected full coverage, got %v", name, m)
					}
					if m["quiesce_bitwise"] != 1 || m["ingested_rows"] == 0 {
						t.Fatalf("%s: quiesce-bitwise failed or no ingest fed: %v", name, m)
					}
				}
				pd := byName["partition_dead"]
				if m := pd.Metrics; m["degraded"] != 1 || m["partitions_answered"] != 1 || m["partitions_total"] != 2 {
					t.Fatalf("partition_dead: expected 1/2 degraded coverage, got %v", m)
				}
				if f := pd.Metrics["population_fraction"]; f <= 0 || f >= 1 {
					t.Fatalf("partition_dead: population fraction %v outside (0,1)", f)
				}
				if pd.Labels["dead_replicas"] != "2" {
					t.Fatalf("partition_dead: dead replicas = %s, want 2", pd.Labels["dead_replicas"])
				}
			},
		},
		{
			// One rate comfortably under capacity, one far past the
			// tightened caps.
			name: "overload", cfg: Config{Rows: 40_000, Seed: 1},
			run: func(cfg Config) ([]report.Point, error) {
				return overloadSweep(cfg, []float64{50, 5000}, 500*time.Millisecond)
			},
			keys: "completed done_p50_ms done_p999_ms done_p99_ms dropped errors leaked_consumers offered offered_rate rate rejected rejected_pct shed started ttfs_p50_ms ttfs_p999_ms ttfs_p99_ms violation_pct violations",
			check: func(t *testing.T, pts []report.Point, out string) {
				if len(pts) != 2 {
					t.Fatalf("%d points, want 2", len(pts))
				}
				for i, p := range pts {
					if p.Metrics["offered"] == 0 {
						t.Fatalf("point %d offered nothing", i)
					}
					if p.Metrics["errors"] != 0 || p.Metrics["leaked_consumers"] != 0 {
						t.Fatalf("point %d saw hard errors or leaked scan consumers: %v", i, p.Metrics)
					}
				}
				// The 5000/s rung offers ~2500 arrivals at caps of 16
				// inflight: the valves must have engaged.
				if m := pts[1].Metrics; m["rejected"] == 0 && m["shed"] == 0 {
					t.Fatalf("high rung engaged no overload valve: %v", m)
				}
				// The knee must exist. On an unloaded host it sits at the
				// 5000/s rung, but under -race or a busy machine even 50/s
				// can shed a late query, so only its presence is asserted.
				if report.FindKnee(pts) < 0 || !pts[1].Gates["knee_inside_ladder"] {
					t.Fatalf("no knee found: %+v", pts)
				}
				if !strings.Contains(out, "knee at") {
					t.Fatalf("report missing knee line:\n%s", out)
				}
				// Past the knee the admitted tail stays bounded: the
				// generator's own hard timeout is 2s, and shedding should keep
				// finals well under it.
				if m := pts[1].Metrics; m["completed"] > 0 && m["done_p99_ms"] > 1500 {
					t.Fatalf("admitted done-p99 past the knee is %vms — shedding is not bounding the tail", m["done_p99_ms"])
				}
			},
		},
		{
			name: "restart", cfg: Config{Rows: 20_000, Seed: 1},
			keys: "batches bitwise checkpoint_bytes checkpoint_ms cold_prepare_ms ingested_rows rows wal_replay_ms warm_beats_cold warm_load_ms warm_total_ms",
			check: func(t *testing.T, pts []report.Point, _ string) {
				if len(pts) != 1 {
					t.Fatalf("%d points, want 1", len(pts))
				}
				if m := pts[0].Metrics; m["ingested_rows"] != 10*200 || m["bitwise"] != 1 || m["checkpoint_bytes"] <= 0 {
					t.Fatalf("restart point %v: want 10 batches of 200 rows, bitwise recovery and a checkpoint", m)
				}
			},
		},
	}
	if len(rows) != len(Sweeps) {
		t.Fatalf("%d rows for %d registered sweeps", len(rows), len(Sweeps))
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			sw, ok := Sweeps[tc.name]
			if !ok {
				t.Fatalf("sweep %q is not registered", tc.name)
			}
			if tc.run != nil {
				sw.Run = tc.run
			}
			var buf bytes.Buffer
			cfg := tc.cfg
			cfg.Out = &buf
			pts, err := sw.run(tc.name, cfg)
			if err != nil {
				t.Fatalf("%v\n%s", err, buf.String())
			}
			labels := strings.Join(sortedCopy(sw.Labels), " ")
			for _, p := range pts {
				var keys, got []string
				for k := range p.Labels {
					got = append(got, k)
					keys = append(keys, k)
				}
				for k := range p.Metrics {
					keys = append(keys, k)
				}
				if g := strings.Join(sortedCopy(got), " "); g != labels {
					t.Errorf("point labels %q, want the registered %q", g, labels)
				}
				if k := strings.Join(sortedCopy(keys), " "); k != tc.keys {
					t.Errorf("point keys\n%s\nwant\n%s", k, tc.keys)
				}
			}
			tc.check(t, pts, buf.String())
		})
	}
}

// TestRunSweepGateFailure checks the shared runner's contract: a failed
// gate returns the points with an error naming the sweep, the point's
// labels and the gate; an unknown name is an error.
func TestRunSweepGateFailure(t *testing.T) {
	Sweeps["stub"] = Sweep{Title: "stub", Labels: []string{"k"}, Run: func(Config) ([]report.Point, error) {
		return []report.Point{
			{Labels: map[string]string{"k": "a"}, Gates: map[string]bool{"g": true}},
			{Labels: map[string]string{"k": "b"}, Gates: map[string]bool{"g": false, "h": true}},
		}, nil
	}}
	defer delete(Sweeps, "stub")
	pts, err := RunSweep("stub", Config{})
	if len(pts) != 2 || err == nil || err.Error() != "sweep stub point k=b: failed gate g" {
		t.Fatalf("RunSweep = %d points, %v", len(pts), err)
	}
	if _, err := RunSweep("bogus", Config{}); err == nil {
		t.Fatal("unknown sweep ran")
	}
	boom := errors.New("boom")
	Sweeps["stub"] = Sweep{Run: func(Config) ([]report.Point, error) { return nil, boom }}
	if pts, err := RunSweep("stub", Config{}); pts != nil || !errors.Is(err, boom) {
		t.Fatalf("run error: %d points, %v", len(pts), err)
	}
}

func sortedCopy(s []string) []string {
	s = append([]string(nil), s...)
	sort.Strings(s)
	return s
}
