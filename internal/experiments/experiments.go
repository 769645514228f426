// Package experiments regenerates every table and figure of the paper's
// evaluation section (Sec. 5) on the scaled-down substrate: Fig. 5 (summary
// report), Fig. 6a–f, the Exp.-4 factor analysis, the Exp.-5 System-Y
// comparison, the data preparation times and the Table-1 detailed report.
// See DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results.
package experiments

import (
	"fmt"
	"io"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/driver"
	"idebench/internal/report"
	"idebench/internal/workflow"
)

// Config parameterizes an experiment run. The zero value is completed by
// withDefaults to the paper's (scaled) default configuration.
type Config struct {
	// Rows is the fact-table size (default core.SizeM).
	Rows int
	// WorkflowsPerType is the number of workflows per workflow type
	// (default 10, the paper's default configuration).
	WorkflowsPerType int
	// Interactions per workflow (default 18).
	Interactions int
	// TRs is the time-requirement sweep (default core.DefaultTimeRequirements).
	TRs []time.Duration
	// ThinkTime between interactions (default core.DefaultThinkTime; the
	// paper stress-tests with its smallest think time).
	ThinkTime time.Duration
	// Engines to benchmark (default core.EngineNames; the users and ingest
	// sweeps default to progressive vs exactdb).
	Engines []string
	// Users is the user-count axis of the users and ingest sweeps (default
	// 1, 2, 4, 8 concurrent simulated analysts).
	Users []int
	// Seed drives data and workload generation.
	Seed int64
	// Out receives the printed report (default: required, callers pass
	// os.Stdout or a buffer).
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Rows <= 0 {
		c.Rows = core.SizeM
	}
	if c.WorkflowsPerType <= 0 {
		c.WorkflowsPerType = 10
	}
	if c.Interactions <= 0 {
		c.Interactions = 18
	}
	if len(c.TRs) == 0 {
		c.TRs = core.DefaultTimeRequirements()
	}
	if c.ThinkTime <= 0 {
		c.ThinkTime = core.DefaultThinkTime
	}
	if len(c.Engines) == 0 {
		c.Engines = append([]string(nil), core.EngineNames...)
	}
	if len(c.Users) == 0 {
		c.Users = []int{1, 2, 4, 8}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// OverallResult carries the raw records of the main experiment, from which
// Fig. 5 and Fig. 6a–c are different views.
type OverallResult struct {
	Records  []driver.Record
	PrepTime map[string]time.Duration
}

// RunOverall executes the paper's main experiment (Sec. 5.2): the mixed
// workload on every engine across the TR sweep, fixed data size,
// de-normalized schema.
func RunOverall(cfg Config) (*OverallResult, error) {
	cfg = cfg.withDefaults()
	db, err := core.BuildData(cfg.Rows, false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	flows, err := core.GenerateWorkflows(db, cfg.WorkflowsPerType, cfg.Interactions, cfg.Seed+100)
	if err != nil {
		return nil, err
	}
	mixed := core.MixedOnly(flows)

	res := &OverallResult{PrepTime: map[string]time.Duration{}}
	for _, name := range cfg.Engines {
		s := core.DefaultSettings()
		s.DataSize = cfg.Rows
		s.Seed = cfg.Seed
		s.ThinkTime = cfg.ThinkTime
		p, err := core.Prepare(name, db, s)
		if err != nil {
			return nil, err
		}
		res.PrepTime[name] = p.PrepTime
		for _, tr := range cfg.TRs {
			s.TimeRequirement = tr
			recs, err := p.Run(mixed, s)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s tr=%v: %w", name, tr, err)
			}
			res.Records = append(res.Records, recs...)
		}
	}
	return res, nil
}

// Fig5 prints the summary report: per engine and TR, the TR-violation and
// missing-bins percentages plus the MRE CDF with its area above the curve.
func Fig5(cfg Config) ([]report.Summary, error) {
	cfg = cfg.withDefaults()
	res, err := RunOverall(cfg)
	if err != nil {
		return nil, err
	}
	rows := report.Summarize(res.Records, report.GroupBy{Driver: true, TimeReq: true})
	fmt.Fprintln(cfg.Out, "=== Figure 5: summary report (mixed workload) ===")
	if err := report.RenderSummaries(cfg.Out, rows); err != nil {
		return nil, err
	}
	fmt.Fprintln(cfg.Out)
	for _, s := range rows {
		if err := report.RenderCDF(cfg.Out, s, 50, 8); err != nil {
			return nil, err
		}
		fmt.Fprintln(cfg.Out)
	}
	return rows, nil
}

// seriesView prints one metric column per engine across TRs — the shape of
// the line charts in Fig. 6a–c.
func seriesView(out io.Writer, title, metric string, rows []report.Summary,
	pick func(report.Summary) float64) {
	fmt.Fprintf(out, "=== %s ===\n", title)
	byDriver := map[string][]report.Summary{}
	var order []string
	for _, s := range rows {
		if _, ok := byDriver[s.Key.Driver]; !ok {
			order = append(order, s.Key.Driver)
		}
		byDriver[s.Key.Driver] = append(byDriver[s.Key.Driver], s)
	}
	for _, d := range order {
		fmt.Fprintf(out, "%-12s", d)
		for _, s := range byDriver[d] {
			fmt.Fprintf(out, "  tr=%gms:%8.3f", s.Key.TimeReqMS, pick(s))
		}
		fmt.Fprintf(out, "   (%s)\n", metric)
	}
}

// Fig6a prints the ratio of TR violations across time requirements.
func Fig6a(cfg Config) ([]report.Summary, error) {
	cfg = cfg.withDefaults()
	res, err := RunOverall(cfg)
	if err != nil {
		return nil, err
	}
	rows := report.Summarize(res.Records, report.GroupBy{Driver: true, TimeReq: true})
	seriesView(cfg.Out, "Figure 6a: TR violations vs time requirement", "tr_violated%",
		rows, func(s report.Summary) float64 { return s.TRViolatedPct })
	return rows, nil
}

// Fig6b prints the median of the mean relative margins across TRs.
func Fig6b(cfg Config) ([]report.Summary, error) {
	cfg = cfg.withDefaults()
	res, err := RunOverall(cfg)
	if err != nil {
		return nil, err
	}
	rows := report.Summarize(res.Records, report.GroupBy{Driver: true, TimeReq: true})
	seriesView(cfg.Out, "Figure 6b: median relative margin vs time requirement", "median_margin",
		rows, func(s report.Summary) float64 { return s.MedianMargin })
	return rows, nil
}

// Fig6c prints the cosine distance across TRs.
func Fig6c(cfg Config) ([]report.Summary, error) {
	cfg = cfg.withDefaults()
	res, err := RunOverall(cfg)
	if err != nil {
		return nil, err
	}
	rows := report.Summarize(res.Records, report.GroupBy{Driver: true, TimeReq: true})
	seriesView(cfg.Out, "Figure 6c: cosine distance vs time requirement", "mean_cosine",
		rows, func(s report.Summary) float64 { return s.MeanCosine })
	return rows, nil
}

// Fig6d runs all workflow types at one fixed TR and prints the proportion
// of missing bins per engine and workflow type.
func Fig6d(cfg Config) ([]report.Summary, error) {
	cfg = cfg.withDefaults()
	db, err := core.BuildData(cfg.Rows, false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	flows, err := core.GenerateWorkflows(db, cfg.WorkflowsPerType, cfg.Interactions, cfg.Seed+100)
	if err != nil {
		return nil, err
	}
	tr := cfg.TRs[len(cfg.TRs)/2]

	var records []driver.Record
	for _, name := range cfg.Engines {
		s := core.DefaultSettings()
		s.DataSize = cfg.Rows
		s.Seed = cfg.Seed
		s.ThinkTime = cfg.ThinkTime
		s.TimeRequirement = tr
		p, err := core.Prepare(name, db, s)
		if err != nil {
			return nil, err
		}
		recs, err := p.Run(flows, s)
		if err != nil {
			return nil, err
		}
		records = append(records, recs...)
	}
	rows := report.Summarize(records, report.GroupBy{Driver: true, WorkflowType: true})
	fmt.Fprintf(cfg.Out, "=== Figure 6d: missing bins by workflow type (tr=%v) ===\n", tr)
	if err := report.RenderSummaries(cfg.Out, rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig6e compares normalized vs de-normalized schemas for the join-capable
// engines at two data sizes (Exp. 2).
func Fig6e(cfg Config) ([]report.Summary, error) {
	cfg = cfg.withDefaults()
	engines := make([]string, 0, 2)
	for _, e := range cfg.Engines {
		if core.SupportsJoins(e) {
			engines = append(engines, e)
		}
	}
	if len(engines) == 0 {
		engines = []string{"exactdb", "onlinedb"}
	}
	// Paper: 100M and 500M. At our scale the smaller size must still keep
	// the online engine's blocking fallback above the TR sweep (otherwise
	// the paper's "XDB stays flat, MonetDB grows" contrast disappears), so
	// sweep {1×, 2×} of the configured size.
	sizes := []int{cfg.Rows, 2 * cfg.Rows}

	var records []driver.Record
	for _, rows := range sizes {
		for _, useJoins := range []bool{false, true} {
			db, err := core.BuildData(rows, useJoins, cfg.Seed)
			if err != nil {
				return nil, err
			}
			// Generate workloads against the flat schema so both variants
			// run identical queries (attributes resolve through dimensions
			// on the normalized variant).
			flatDB, err := core.BuildData(rows, false, cfg.Seed)
			if err != nil {
				return nil, err
			}
			flows, err := core.GenerateWorkflows(flatDB, cfg.WorkflowsPerType, cfg.Interactions, cfg.Seed+100)
			if err != nil {
				return nil, err
			}
			mixed := core.MixedOnly(flows)
			for _, name := range engines {
				s := core.DefaultSettings()
				s.DataSize = rows
				s.Seed = cfg.Seed
				s.ThinkTime = cfg.ThinkTime
				s.UseJoins = useJoins
				p, err := core.Prepare(name, db, s)
				if err != nil {
					return nil, err
				}
				for _, tr := range cfg.TRs {
					s.TimeRequirement = tr
					recs, err := p.Run(mixed, s)
					if err != nil {
						return nil, err
					}
					// Annotate schema variant through the driver name.
					for i := range recs {
						if useJoins {
							recs[i].Driver += "+join"
						}
					}
					records = append(records, recs...)
				}
			}
		}
	}
	rows := report.Summarize(records, report.GroupBy{Driver: true, DataSize: true})
	fmt.Fprintln(cfg.Out, "=== Figure 6e: normalized vs de-normalized TR violations (Exp. 2) ===")
	if err := report.RenderSummaries(cfg.Out, rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// Exp4 runs the main experiment and prints the "other effects" factor
// analysis (Sec. 5.5).
func Exp4(cfg Config) ([]report.EffectRow, error) {
	cfg = cfg.withDefaults()
	res, err := RunOverall(cfg)
	if err != nil {
		return nil, err
	}
	rows := report.Analyze(res.Records)
	fmt.Fprintln(cfg.Out, "=== Exp. 4: other effects (bin dims / binning type / agg type / concurrency / specificity) ===")
	if err := report.RenderEffects(cfg.Out, rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// PrepRow reports one engine's data preparation time (Sec. 5.2).
type PrepRow struct {
	Engine   string
	Rows     int
	Bytes    int64
	PrepTime time.Duration
}

// Prep measures the data preparation time of every engine on the default
// dataset.
func Prep(cfg Config) ([]PrepRow, error) {
	cfg = cfg.withDefaults()
	db, err := core.BuildData(cfg.Rows, false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var out []PrepRow
	for _, name := range cfg.Engines {
		s := core.DefaultSettings()
		s.DataSize = cfg.Rows
		s.Seed = cfg.Seed
		p, err := core.Prepare(name, db, s)
		if err != nil {
			return nil, err
		}
		out = append(out, PrepRow{Engine: name, Rows: cfg.Rows, Bytes: db.TotalBytes(), PrepTime: p.PrepTime})
	}
	fmt.Fprintln(cfg.Out, "=== Data preparation time (Sec. 5.2) ===")
	for _, r := range out {
		fmt.Fprintf(cfg.Out, "%-14s rows=%-9d bytes=%-11d prep=%v\n", r.Engine, r.Rows, r.Bytes, r.PrepTime)
	}
	return out, nil
}

// Table1 runs one mixed workflow on the progressive engine and prints the
// detailed per-query report (paper Table 1, appendix).
func Table1(cfg Config) ([]driver.Record, error) {
	cfg = cfg.withDefaults()
	db, err := core.BuildData(cfg.Rows, false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	flows, err := core.GenerateWorkflows(db, 1, cfg.Interactions, cfg.Seed+100)
	if err != nil {
		return nil, err
	}
	mixed := core.MixedOnly(flows)
	s := core.DefaultSettings()
	s.DataSize = cfg.Rows
	s.Seed = cfg.Seed
	s.ThinkTime = cfg.ThinkTime
	s.TimeRequirement = cfg.TRs[0]
	p, err := core.Prepare("progressive", db, s)
	if err != nil {
		return nil, err
	}
	recs, err := p.Run(mixed, s)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(cfg.Out, "=== Table 1: detailed report (one mixed workflow, progressive engine) ===")
	if err := report.WriteDetailedCSV(cfg.Out, recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// flatDBForWorkloads is a seam for tests.
var _ = dataset.Kind(0)

// ThinkTimeResult is one point of Fig. 6f.
type ThinkTimeResult struct {
	ThinkTime   time.Duration
	MissingBins float64
	Speculative bool
}

// Exp5Result compares System Y (idelayer over exactdb) with its backend.
type Exp5Result struct {
	Engine        string
	MeanLatencyMS float64
	TRViolatedPct float64
	Queries       int
}

// Exp5 replicates Sec. 5.6: three 1:N workflows on exactdb directly and on
// the System-Y layer above it; the layer adds a constant per-query delay.
func Exp5(cfg Config) ([]Exp5Result, error) {
	cfg = cfg.withDefaults()
	db, err := core.BuildData(cfg.Rows, false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	gen, err := workflowGenerator(db)
	if err != nil {
		return nil, err
	}
	var flows []*workflow.Workflow
	for i := 0; i < 3; i++ {
		w, err := gen.Generate(workflow.GenConfig{
			Type: workflow.OneToNLinking, Interactions: cfg.Interactions,
			Seed: cfg.Seed + int64(500+i), Name: fmt.Sprintf("1n-variant-%d", i),
		})
		if err != nil {
			return nil, err
		}
		flows = append(flows, w)
	}

	var out []Exp5Result
	// Generous TR so System Y's render delay shows up as latency, not as
	// violations (the paper measured latency by watching the UI update).
	tr := 10 * cfg.TRs[len(cfg.TRs)-1]
	for _, name := range []string{"exactdb", "systemy"} {
		s := core.DefaultSettings()
		s.DataSize = cfg.Rows
		s.Seed = cfg.Seed
		s.ThinkTime = cfg.ThinkTime
		s.TimeRequirement = tr
		p, err := core.Prepare(name, db, s)
		if err != nil {
			return nil, err
		}
		recs, err := p.Run(flows, s)
		if err != nil {
			return nil, err
		}
		var latSum float64
		var violated int
		for _, r := range recs {
			latSum += r.LatencyMS()
			if r.Metrics.TRViolated {
				violated++
			}
		}
		out = append(out, Exp5Result{
			Engine:        name,
			MeanLatencyMS: latSum / float64(len(recs)),
			TRViolatedPct: 100 * float64(violated) / float64(len(recs)),
			Queries:       len(recs),
		})
	}
	fmt.Fprintln(cfg.Out, "=== Exp. 5: System Y (IDE layer) vs direct backend ===")
	for _, r := range out {
		fmt.Fprintf(cfg.Out, "%-10s queries=%-4d mean_latency=%.2fms tr_violated=%.1f%%\n",
			r.Engine, r.Queries, r.MeanLatencyMS, r.TRViolatedPct)
	}
	return out, nil
}

func workflowGenerator(db *dataset.Database) (*workflow.Generator, error) {
	return workflow.NewGenerator(db.Fact)
}
