// Command benchrun records the repo's performance as a BENCH_<n>.json
// artifact: the scan and concurrent-progressive go benchmarks plus the
// in-process sweeps of the experiments.Sweeps registry.
//
// Usage:
//
//	go run ./cmd/benchrun -out BENCH_10.json
//	go run ./cmd/benchrun -out scan.json -bench BenchmarkScan -pkgs ./internal/engine -benchtime 10x
//	go run ./cmd/benchrun -out ci.json -users 1,8 -engines progressive -compare BENCH_3.json -tolerance 0.25
//
// -sweeps lists the sweeps to run (users, ingest, shards, elastic,
// overload, restart); "auto" runs all of them unless -bench or -pkgs
// narrows the run to micro-benchmarks. -users and -engines override the
// users and ingest sweeps' axes. Each sweep prints its table; a point that
// fails one of its gates fails the run (exit 1) after the artifact is
// written.
//
// The artifact is schema 2: host fields, "benchmarks", "speedups" and
// "sweeps": {name: [{"labels": {...}, "metrics": {...}, "gates": {...}}]}.
// Metric keys are the schema-1 JSON names, and a NaN metric is null.
// Schema-1 artifacts (BENCH_2..9: a *_sweep array per sweep plus the
// restart object) load into the same points, so -compare reads both.
//
// -compare fails the run when a guarded metric regressed beyond -tolerance
// against the baseline. Values are compared only between comparable hosts,
// but a guarded metric present in the baseline and missing from the fresh
// run always fails: a guard that silently stops measuring is itself a
// regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"idebench/internal/core"
	"idebench/internal/experiments"
	"idebench/internal/report"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Package    string             `json:"package"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Output is the BENCH_<n>.json document.
type Output struct {
	Schema      int                       `json:"schema"`
	GeneratedAt string                    `json:"generated_at"`
	GoVersion   string                    `json:"go_version"`
	GOOS        string                    `json:"goos"`
	GOARCH      string                    `json:"goarch"`
	NumCPU      int                       `json:"num_cpu"`
	BenchRegex  string                    `json:"bench_regex"`
	Benchtime   string                    `json:"benchtime"`
	Benchmarks  []Result                  `json:"benchmarks"`
	Speedups    map[string]float64        `json:"speedups,omitempty"`
	Sweeps      map[string][]report.Point `json:"sweeps,omitempty"`
}

// benchLine matches standard `go test -bench` output, e.g.
// "BenchmarkFoo/sub-8   100   123456 ns/op   42.0 Mrows/s   16 B/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.e+]+) ns/op(.*)$`)

// baselinePairs maps a measured variant to its baseline within the same
// benchmark group; speedup = baseline ns/op ÷ variant ns/op.
var baselinePairs = map[string]string{
	"shared":    "independent_gather",
	"vec_dense": "scalar",
	"vec_map":   "scalar",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is benchrun with its arguments and output streams passed in; it
// returns the exit code: 2 for a usage error, 1 for a failed run, gate or
// guard.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "output JSON path (required)")
	bench := fs.String("bench", "BenchmarkScan|BenchmarkProgressiveConcurrent8|BenchmarkProgressiveFirstSnapshot|BenchmarkProgressivePrepare", "benchmark regex")
	pkgs := fs.String("pkgs", "./internal/engine,./internal/engine/progressive", "comma-separated package list")
	// A fixed iteration count beats go's time-based ramp-up for recorded
	// artifacts: on small machines the 1-iteration calibration pass puts
	// scheduler noise into the reported mean for fast benchmarks.
	benchtime := fs.String("benchtime", "100x", "go test -benchtime value (empty: go default)")
	sweeps := fs.String("sweeps", "auto", "comma-separated sweeps to run ("+strings.Join(experiments.SweepNames(), ", ")+"); \"auto\" runs all unless -bench or -pkgs is set")
	users := fs.String("users", "", "comma-separated user counts of the users and ingest sweeps (default 1,2,4,8)")
	engines := fs.String("engines", "", "comma-separated engines the users and ingest sweeps contrast (default progressive,exactdb)")
	compare := fs.String("compare", "", "baseline BENCH json to guard against (empty disables)")
	tolerance := fs.Float64("tolerance", 0.25, "allowed relative regression per guarded metric with -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchrun: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	if *out == "" {
		return usage("-out is required")
	}
	if *compare == *out {
		return usage("-compare and -out are the same file %q; the fresh run would clobber its own baseline", *out)
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchrun: "+format+"\n", a...)
		return 1
	}

	names := splitList(*sweeps)
	if *sweeps == "auto" {
		// A targeted micro-benchmark run should not silently multiply its
		// wall-clock with in-process experiments.
		names = experiments.SweepNames()
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "bench" || f.Name == "pkgs" {
				names = nil
			}
		})
	}
	for _, name := range names {
		if _, ok := experiments.Sweeps[name]; !ok {
			return usage("unknown sweep %q", name)
		}
	}
	cfg := experiments.Config{Rows: core.SizeS, Engines: splitList(*engines), Out: stdout}
	for _, s := range splitList(*users) {
		u, err := strconv.Atoi(s)
		if err != nil || u < 1 {
			return usage("bad user count %q", s)
		}
		cfg.Users = append(cfg.Users, u)
	}

	doc := Output{
		Schema:      2,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		BenchRegex:  *bench,
		Benchtime:   *benchtime,
		Sweeps:      map[string][]report.Point{},
	}
	for _, pkg := range splitList(*pkgs) {
		results, err := runPackage(pkg, *bench, *benchtime, stderr)
		if err != nil {
			return fail("%s: %v", pkg, err)
		}
		doc.Benchmarks = append(doc.Benchmarks, results...)
	}
	doc.Speedups = deriveSpeedups(doc.Benchmarks)

	var gateErrs []error
	for _, name := range names {
		pts, err := experiments.RunSweep(name, cfg)
		if pts == nil && err != nil {
			return fail("%v", err)
		}
		doc.Sweeps[name] = pts
		if err != nil {
			gateErrs = append(gateErrs, err)
		}
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fail("%v", err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(stdout, "benchrun: wrote %d results to %s\n", len(doc.Benchmarks), *out)
	for name, s := range doc.Speedups {
		fmt.Fprintf(stdout, "benchrun: speedup %s: %.2fx\n", name, s)
	}
	if len(gateErrs) > 0 {
		for _, err := range gateErrs {
			fmt.Fprintf(stderr, "benchrun: FAIL %v\n", err)
		}
		return 1
	}

	if *compare != "" {
		base, err := readOutput(*compare)
		if err != nil {
			return fail("compare: %v", err)
		}
		if failures := compareGuard(base, &doc, *tolerance, stdout); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintf(stderr, "benchrun: REGRESSION %s\n", f)
			}
			return 1
		}
		fmt.Fprintf(stdout, "benchrun: no regression beyond %.0f%% vs %s\n", *tolerance*100, *compare)
	}
	return 0
}

// splitList splits a comma-separated flag value, dropping blank entries.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// readOutput reads a BENCH json of either schema.
func readOutput(path string) (*Output, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Output
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema < 2 {
		if doc.Sweeps, err = sweepsV1(data); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return &doc, nil
}

// v1Sweeps maps each schema-1 key to the sweep that now records it.
var v1Sweeps = map[string]string{
	"user_sweep":     "users",
	"ingest_sweep":   "ingest",
	"shard_sweep":    "shards",
	"elastic_sweep":  "elastic",
	"overload_sweep": "overload",
	"restart":        "restart",
}

// sweepsV1 turns a schema-1 document's typed sweep rows into points: a
// sweep's label keys become labels and every other field a metric, with
// booleans as 1/0. The top-level overload_knee is dropped; report.FindKnee
// derives it from the points.
func sweepsV1(data []byte) (map[string][]report.Point, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	sweeps := map[string][]report.Point{}
	for key, name := range v1Sweeps {
		msg, ok := raw[key]
		if !ok {
			continue
		}
		var rows []map[string]any
		if key == "restart" {
			msg = append(append([]byte("["), msg...), ']')
		}
		if err := json.Unmarshal(msg, &rows); err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		isLabel := map[string]bool{}
		for _, l := range experiments.Sweeps[name].Labels {
			isLabel[l] = true
		}
		for _, row := range rows {
			p := report.Point{Labels: map[string]string{}, Metrics: map[string]float64{}}
			for k, v := range row {
				switch v := v.(type) {
				case string:
					p.Labels[k] = v
				case bool:
					p.Metrics[k] = report.BoolMetric(v)
				case float64:
					if isLabel[k] {
						p.Labels[k] = strconv.FormatFloat(v, 'f', -1, 64)
					} else {
						p.Metrics[k] = v
					}
				}
			}
			sweeps[name] = append(sweeps[name], p)
		}
	}
	return sweeps, nil
}

// guard is one -compare check: metric of the first point of sweep whose
// labels include labels. higherIsBetter metrics fail when fresh <
// base*(1-tol); lower-is-better ones when fresh > base*(1+tol).
type guard struct {
	sweep          string
	labels         map[string]string
	metric         string
	higherIsBetter bool
}

var progressive8 = map[string]string{"engine": "progressive", "users": "8"}

// guards are the regression checks: the two headline numbers the serving
// layer depends on (first-snapshot latency, 8-user throughput), their
// host-normalized ratio forms, the coordinator's merged throughput at the
// largest shard count and 8-user ingest throughput. Baselines recorded
// before a sweep existed skip its guards.
var guards = []guard{
	{"benchmarks", map[string]string{"name": "BenchmarkProgressiveFirstSnapshot/shared"}, "ns_per_op", false},
	{"users", progressive8, "queries_per_sec", true},
	{"users", progressive8, "speedup_vs_sequential", true},
	{"speedups", nil, "BenchmarkProgressiveConcurrent8/shared_vs_independent_gather", true},
	{"shards", map[string]string{"topology": "shard4"}, "queries_per_sec", true},
	{"ingest", progressive8, "ingest_rows_per_sec", true},
}

func (g guard) String() string {
	return fmt.Sprintf("%s{%s}.%s", g.sweep, report.LabelString(g.labels), g.metric)
}

// value looks the guarded metric up in o. The go benchmarks read as points
// labelled by name with an ns_per_op metric, and the speedups as one
// unlabelled point.
func (g guard) value(o *Output) (float64, bool) {
	var pts []report.Point
	switch g.sweep {
	case "benchmarks":
		for _, b := range o.Benchmarks {
			pts = append(pts, report.Point{Labels: map[string]string{"name": b.Name}, Metrics: map[string]float64{"ns_per_op": b.NsPerOp}})
		}
	case "speedups":
		pts = []report.Point{{Metrics: o.Speedups}}
	default:
		pts = o.Sweeps[g.sweep]
	}
	for _, p := range pts {
		match := true
		for k, v := range g.labels {
			match = match && p.Labels[k] == v
		}
		if match {
			v, ok := p.Metrics[g.metric]
			return v, ok
		}
	}
	return 0, false
}

// comparableHosts reports whether absolute numbers from the two documents
// may be compared: same OS and CPU count (the baseline artifact may come
// from a different machine class than the CI runner).
func comparableHosts(a, b *Output) bool {
	return a.GOOS == b.GOOS && a.GOARCH == b.GOARCH && a.NumCPU == b.NumCPU
}

// compareGuard returns a description per guarded metric that regressed
// beyond tol, logging each check to log. Metrics absent from the baseline
// are skipped (older artifacts); metrics present in the baseline but
// missing fresh fail on any host. Metric *values* are only compared between
// comparable hosts: absolute latencies/throughput obviously shift with
// hardware, and even the speedup ratios depend on CPU count (on one core
// the shared scan amortizes a serial memory pass; on four, the independent
// baseline parallelizes), so a cross-host value comparison would flag
// hardware, not code.
func compareGuard(base, fresh *Output, tol float64, log io.Writer) []string {
	hostOK := comparableHosts(base, fresh)
	if !hostOK {
		fmt.Fprintf(log, "benchrun: baseline host %s/%s/%dcpu differs from %s/%s/%dcpu; enforcing metric presence only\n",
			base.GOOS, base.GOARCH, base.NumCPU, fresh.GOOS, fresh.GOARCH, fresh.NumCPU)
	}
	var failures []string
	for _, g := range guards {
		bv, ok := g.value(base)
		if !ok || bv == 0 {
			fmt.Fprintf(log, "benchrun: baseline lacks %s; skipping\n", g)
			continue
		}
		fv, ok := g.value(fresh)
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from fresh run (baseline %.4g)", g, bv))
			continue
		}
		if !hostOK {
			fmt.Fprintf(log, "benchrun: %s: fresh %.4g present (baseline %.4g; hosts differ, value not compared)\n", g, fv, bv)
			continue
		}
		bad, dir := fv > bv*(1+tol), "≥"
		if g.higherIsBetter {
			bad, dir = fv < bv*(1-tol), "≤"
		}
		fmt.Fprintf(log, "benchrun: %s: fresh %.4g vs base %.4g (fail when %s %.0f%% off)\n", g, fv, bv, dir, tol*100)
		if bad {
			failures = append(failures, fmt.Sprintf("%s: fresh %.4g vs baseline %.4g exceeds %.0f%% tolerance", g, fv, bv, tol*100))
		}
	}
	return failures
}

// runPackage executes the benchmarks of one package and parses the output.
func runPackage(pkg, bench, benchtime string, stderr io.Writer) ([]Result, error) {
	args := []string{"test", pkg, "-run", "^$", "-bench", bench}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	cmd := exec.Command("go", args...)
	cmd.Stderr = stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test: %w\n%s", err, outBytes)
	}
	return parseBench(pkg, string(outBytes)), nil
}

// parseBench extracts the benchmark lines of one package's `go test
// -bench` output.
func parseBench(pkg, output string) []Result {
	var results []Result
	for _, line := range strings.Split(output, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		results = append(results, Result{
			Name:       m[1],
			Package:    pkg,
			Iterations: iters,
			NsPerOp:    ns,
			Metrics:    parseMetrics(m[4]),
		})
	}
	return results
}

// parseMetrics turns the "12.3 unit 4 B/op" tail into a map.
func parseMetrics(tail string) map[string]float64 {
	fields := strings.Fields(tail)
	if len(fields) < 2 {
		return nil
	}
	metrics := make(map[string]float64)
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		metrics[fields[i+1]] = v
	}
	if len(metrics) == 0 {
		return nil
	}
	return metrics
}

// deriveSpeedups computes baseline÷variant ratios for known benchmark pairs.
func deriveSpeedups(results []Result) map[string]float64 {
	byName := make(map[string]Result, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	speedups := make(map[string]float64)
	for _, r := range results {
		i := strings.LastIndex(r.Name, "/")
		if i < 0 {
			continue
		}
		group, variant := r.Name[:i], r.Name[i+1:]
		base, ok := baselinePairs[variant]
		if !ok {
			continue
		}
		b, ok := byName[group+"/"+base]
		if !ok || r.NsPerOp == 0 {
			continue
		}
		speedups[r.Name+"_vs_"+base] = b.NsPerOp / r.NsPerOp
	}
	if len(speedups) == 0 {
		return nil
	}
	return speedups
}
