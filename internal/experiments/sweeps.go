package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/driver"
	"idebench/internal/engine"
	"idebench/internal/groundtruth"
	"idebench/internal/ingest"
	"idebench/internal/query"
	"idebench/internal/report"
	"idebench/internal/workflow"
)

// Sweep is one registered benchmark sweep. Run measures its points and
// sets each point's gates; RunSweep prints and enforces them, so every
// entry point (`idebench exp`, cmd/benchrun) applies the same checks.
type Sweep struct {
	// Title heads the printed table.
	Title string
	// Labels are the keys that place a point on the sweep's axes; every
	// other BENCH key of the sweep is a metric.
	Labels []string
	Run    func(Config) ([]report.Point, error)
}

// Sweeps is the sweep registry, by the name `idebench exp -name` and
// `benchrun -sweeps` take.
var Sweeps = map[string]Sweep{
	"users": {
		Title:  "User scalability: concurrent analysts per engine (mixed workload)",
		Labels: []string{"engine", "users"},
		Run:    userSweep,
	},
	"ingest": {
		Title:  "Live ingestion: append-only batches during concurrent replay (mixed workload)",
		Labels: []string{"engine", "users"},
		Run:    ingestSweep,
	},
	"shards": {
		Title:  "Scatter-gather: coordinator over N shards vs single node (ingest-aware mixed workload)",
		Labels: []string{"topology", "shards", "users"},
		// 1 shard measures pure coordinator overhead (fan-out, partial
		// folding, watermark translation) against the single-node baseline.
		Run: func(cfg Config) ([]report.Point, error) { return shardSweep(cfg, []int{1, 2, 4}, 4) },
	},
	"elastic": {
		Title:  "Elasticity: 2x2 replicated coordinator under injected failures",
		Labels: []string{"scenario", "partitions", "replicas_per_partition", "dead_replicas", "users"},
		Run:    func(cfg Config) ([]report.Point, error) { return elasticSweep(cfg, 4) },
	},
	"overload": {
		Title:  "Overload survival: open-loop Poisson arrivals vs tightened admission caps",
		Labels: []string{"rate"},
		Run: func(cfg Config) ([]report.Point, error) {
			return overloadSweep(cfg, defaultOverloadRates, 2*time.Second)
		},
	},
	"restart": {
		Title:  "Warm restart: checkpoint load + reordered prepare + WAL replay vs cold prepare",
		Labels: []string{"rows", "batches"},
		Run:    restartBench,
	},
}

// SweepNames returns the registered sweep names, sorted.
func SweepNames() []string {
	names := make([]string, 0, len(Sweeps))
	for name := range Sweeps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RunSweep runs the named sweep, prints its table to cfg.Out and checks
// every point's gates. On a gate failure it returns the points together
// with an error naming the sweep, the point's labels and each failed gate,
// so a caller can still record them.
func RunSweep(name string, cfg Config) ([]report.Point, error) {
	sw, ok := Sweeps[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown sweep %q", name)
	}
	return sw.run(name, cfg)
}

func (sw Sweep) run(name string, cfg Config) ([]report.Point, error) {
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	fmt.Fprintf(out, "=== %s ===\n", sw.Title)
	pts, err := sw.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("sweep %s: %w", name, err)
	}
	if err := report.RenderPoints(out, pts); err != nil {
		return nil, err
	}
	var failed []error
	for _, p := range pts {
		for _, gate := range p.Failed() {
			failed = append(failed, fmt.Errorf("sweep %s point %s: failed gate %s", name, report.LabelString(p.Labels), gate))
		}
	}
	return pts, errors.Join(failed...)
}

// replay is the setup the multi-user replay sweeps share: the dataset, one
// mixed workflow per user (plain, and with an ingest event every
// IngestEvery interactions) and the settings at the middle time
// requirement of cfg.TRs.
type replay struct {
	cfg   Config
	db    *dataset.Database
	plain []*workflow.Workflow
	flows []*workflow.Workflow
	s     core.Settings
}

// newReplay builds the shared setup for up to users concurrent users.
// seedOffset keeps each sweep's workflows distinct from the other sweeps'
// and stable across releases.
func newReplay(cfg Config, users int, seedOffset int64) (*replay, error) {
	if users < 1 {
		return nil, fmt.Errorf("experiments: a replay needs at least one user")
	}
	db, err := core.BuildData(cfg.Rows, false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	gen, err := workflowGenerator(db)
	if err != nil {
		return nil, err
	}
	r := &replay{cfg: cfg, db: db, plain: make([]*workflow.Workflow, users), flows: make([]*workflow.Workflow, users)}
	batchRows := max(cfg.Rows/100, 200)
	for i := range r.plain {
		w, err := gen.Generate(workflow.GenConfig{
			Type: workflow.Mixed, Interactions: cfg.Interactions,
			Seed: cfg.Seed + seedOffset + int64(i), Name: fmt.Sprintf("mixed-u%02d", i),
		})
		if err != nil {
			return nil, err
		}
		r.plain[i] = w
		r.flows[i] = workflow.InterleaveIngest(w, IngestEvery, batchRows)
	}
	r.s = core.DefaultSettings()
	r.s.DataSize = cfg.Rows
	r.s.Seed = cfg.Seed
	r.s.ThinkTime = cfg.ThinkTime
	r.s.TimeRequirement = cfg.TRs[len(cfg.TRs)/2]
	return r, nil
}

func (r *replay) driverConfig() driver.Config {
	return driver.Config{
		TimeRequirement: r.s.TimeRequirement,
		ThinkTime:       r.s.ThinkTime,
		DataSizeLabel:   core.SizeLabel(r.cfg.Rows),
	}
}

// harness returns a fresh ingest harness feeding app from the sweeps'
// shared deterministic batch source.
func (r *replay) harness(app engine.Appender) (*ingest.Harness, error) {
	if app == nil {
		return nil, fmt.Errorf("engine does not support ingestion")
	}
	src, err := ingest.NewSource(2000, r.cfg.Seed+23)
	if err != nil {
		return nil, err
	}
	return ingest.NewHarness(r.db, src, ingest.EngineSink{A: app}), nil
}

// run replays the first users workflows as concurrent, jittered users of
// eng — the ingest-interleaved ones feeding h when h is non-nil.
func (r *replay) run(eng engine.Engine, gt *groundtruth.Cache, users int, h *ingest.Harness) (*driver.MultiResult, error) {
	dcfg, flows := r.driverConfig(), r.plain
	if h != nil {
		dcfg.IngestSink, flows = h, r.flows
	}
	m := driver.NewMulti(eng, gt, driver.MultiConfig{
		Config: dcfg, Users: users, ThinkJitter: driver.DefaultThinkJitter, Seed: r.cfg.Seed,
	})
	return m.Run(flows[:users])
}

// replayMetrics summarizes a replay of one engine and user count: query
// count, violations, throughput and latency percentiles, with wall_clock_ms
// the replay window (which closes before deferred ground-truth resolution).
// One group has no 1-user baseline, so speedup_vs_1user is dropped.
func replayMetrics(res *driver.MultiResult) map[string]float64 {
	m := map[string]float64{}
	for _, pt := range report.SummarizeUsers(res.Records) {
		m = pt.Metrics
	}
	delete(m, "speedup_vs_1user")
	m["wall_clock_ms"] = durMS(res.WallClock)
	return m
}

// sweepEngines returns the engines a users or ingest sweep contrasts:
// cfg.Engines when the caller named any, else the shared-scan progressive
// engine vs the independent-scan exactdb — not all four withDefaults fills.
func sweepEngines(cfg Config) []string {
	if len(cfg.Engines) > 0 {
		return cfg.Engines
	}
	return []string{"progressive", "exactdb"}
}

// claimDriver records that engine name reports driver name drv. Records
// group by driver name, so two engines reporting one name (progressive-spec
// reports as "progressive") would merge into one group.
func claimDriver(seen map[string]string, drv, name string) error {
	if prev, ok := seen[drv]; ok && prev != name {
		return fmt.Errorf("experiments: engines %q and %q both report driver name %q; "+
			"their records would merge into one group — sweep them separately", prev, name, drv)
	}
	seen[drv] = name
	return nil
}

// quiesceBitwise verifies the incremental path against a cold rebuild: the
// engine's watermark must equal the harness's (every batch absorbed), and a
// fresh COUNT-by-carrier query must match the final table's exact scan —
// bitwise when the engine answers exactly (counts are integers, so any lost
// or double-folded row shows), or total-within-tolerance for sampling
// engines whose complete answer is an estimate by design. A mismatch
// returns false with its reason written to out; only a query that cannot
// run returns an error.
func quiesceBitwise(out io.Writer, eng engine.Engine, app engine.Appender, h *ingest.Harness) (bool, error) {
	mismatch := func(format string, a ...any) (bool, error) {
		fmt.Fprintf(out, "quiesce mismatch: "+format+"\n", a...)
		return false, nil
	}
	want := h.Watermark()
	if w := app.Watermark(); w != want {
		return mismatch("engine watermark %d, harness %d", w, want)
	}
	q := &query.Query{
		VizName: "quiesce_count", Table: h.FinalView().Fact.Name,
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}
	gt, err := h.TruthAt(q, want)
	if err != nil {
		return false, err
	}
	res, err := runToCompletion(eng, q)
	if err != nil {
		return false, err
	}
	if res.Watermark != want {
		return mismatch("result watermark %d, want %d", res.Watermark, want)
	}
	if !res.Complete {
		// A sampling engine's finished answer is an estimate (Complete stays
		// false by design): hold it to the stratified-sampling contract —
		// the scaled total tracks the grown population.
		var gtTotal, resTotal float64
		for _, bv := range gt.Bins {
			gtTotal += bv.Values[0]
		}
		for _, bv := range res.Bins {
			resTotal += bv.Values[0]
		}
		if gtTotal == 0 {
			return len(res.Bins) == 0, nil
		}
		if diff := (resTotal - gtTotal) / gtTotal; diff < -0.15 || diff > 0.15 {
			return mismatch("estimate total %v, want within 15%% of %v", resTotal, gtTotal)
		}
		return true, nil
	}
	if len(res.Bins) != len(gt.Bins) {
		return mismatch("%d bins, want %d", len(res.Bins), len(gt.Bins))
	}
	for k, wv := range gt.Bins {
		if gv, ok := res.Bins[k]; !ok || gv.Values[0] != wv.Values[0] {
			return mismatch("count bin %v: got %v, want exactly %v", k, gv, wv.Values[0])
		}
	}
	return true, nil
}

// runToCompletion runs q on a fresh session of eng and returns its final
// result.
func runToCompletion(eng engine.Engine, q *query.Query) (*query.Result, error) {
	sess := eng.OpenSession()
	defer sess.Close()
	sess.WorkflowStart()
	defer sess.WorkflowEnd()
	hdl, err := sess.StartQuery(q)
	if err != nil {
		return nil, err
	}
	select {
	case <-hdl.Done():
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("%s query did not complete", q.VizName)
	}
	res := hdl.Snapshot()
	if res == nil {
		return nil, fmt.Errorf("%s query was refused (nil snapshot)", q.VizName)
	}
	return res, nil
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSince(t time.Time) float64 { return durMS(time.Since(t)) }
