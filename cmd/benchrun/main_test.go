package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"idebench/internal/experiments"
	"idebench/internal/report"
)

// TestReadV1Artifacts loads every committed schema-1 BENCH file and checks
// each guard extracts exactly what the typed schema-1 extractors returned
// (0 where they reported the metric absent), in guards order.
func TestReadV1Artifacts(t *testing.T) {
	want := map[string][]float64{
		"BENCH_2.json": {19524, 0, 0, 4.300883708239567, 0, 0},
		"BENCH_3.json": {20034, 1002.9879945369344, 5.2403067099966805, 3.815476104089153, 0, 0},
		"BENCH_5.json": {25628, 910.3506509102422, 5.3304786759922225, 4.587055997769228, 0, 285648.5979626982},
		"BENCH_6.json": {58999, 1013.3457955489547, 5.502109597416882, 4.405020567500575, 0, 302134.3702488237},
		"BENCH_7.json": {63508, 915.8530672927373, 5.669192068786274, 4.70916539886209, 0, 309498.0162538949},
		"BENCH_8.json": {20191, 827.8670310779037, 4.573532404336034, 4.779847173638185, 291.3661372755087, 289926.91383191204},
		"BENCH_9.json": {19912, 953.5143215374912, 5.220567664624857, 4.679200365950689, 299.86664148192494, 318638.81170359335},
	}
	for file, vals := range want {
		doc, err := readOutput(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range guards {
			v, ok := g.value(doc)
			if vals[i] == 0 && ok || vals[i] != 0 && (!ok || v != vals[i]) {
				t.Errorf("%s %s = %v (present %v), want %v", file, g, v, ok, vals[i])
			}
		}
	}

	// BENCH_9 holds every schema-1 sweep: each loads with its full row count
	// and the registry's label keys.
	doc, err := readOutput(filepath.Join("..", "..", "BENCH_9.json"))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{"users": 8, "ingest": 8, "shards": 4, "elastic": 3, "overload": 6, "restart": 1}
	for name, n := range counts {
		pts := doc.Sweeps[name]
		if len(pts) != n {
			t.Errorf("%s: %d points, want %d", name, len(pts), n)
		}
		want := append([]string(nil), experiments.Sweeps[name].Labels...)
		sort.Strings(want)
		for _, p := range pts {
			var labels []string
			for k := range p.Labels {
				labels = append(labels, k)
			}
			sort.Strings(labels)
			if !reflect.DeepEqual(labels, want) {
				t.Errorf("%s: labels %v, want keys %v", name, p.Labels, want)
			}
		}
	}
	if m := doc.Sweeps["elastic"][2].Metrics; m["degraded"] != 1 || m["quiesce_bitwise"] != 0 {
		t.Errorf("partition_dead booleans not loaded as 1/0: %v", m)
	}
	if r := doc.Sweeps["restart"][0]; r.Labels["rows"] != "250000" || r.Metrics["warm_beats_cold"] != 1 {
		t.Errorf("restart object not loaded as one point: %+v", r)
	}
}

func guardDoc(ncpu int, nsPerOp, qps float64) *Output {
	doc := &Output{GOOS: "linux", GOARCH: "amd64", NumCPU: ncpu,
		Benchmarks: []Result{{Name: "BenchmarkProgressiveFirstSnapshot/shared", NsPerOp: nsPerOp}}}
	if qps > 0 {
		doc.Sweeps = map[string][]report.Point{"users": {{
			Labels:  map[string]string{"engine": "progressive", "users": "8"},
			Metrics: map[string]float64{"queries_per_sec": qps, "speedup_vs_sequential": 5},
		}}}
	}
	return doc
}

func TestCompareGuard(t *testing.T) {
	base := guardDoc(1, 100, 1000)
	for _, tc := range []struct {
		name  string
		fresh *Output
		want  []string // failure prefixes, in guards order
	}{
		{"within tolerance", guardDoc(1, 120, 800), nil},
		{"lower-is-better beyond tolerance", guardDoc(1, 130, 1000), []string{"benchmarks{name=BenchmarkProgressiveFirstSnapshot/shared}.ns_per_op: fresh 130"}},
		{"higher-is-better beyond tolerance", guardDoc(1, 100, 700), []string{"users{engine=progressive users=8}.queries_per_sec: fresh 700"}},
		{"missing from fresh run", guardDoc(1, 100, 0), []string{
			"users{engine=progressive users=8}.queries_per_sec: missing from fresh run",
			"users{engine=progressive users=8}.speedup_vs_sequential: missing from fresh run",
		}},
		// The baseline has no shards or ingest sweep: those guards skip.
		{"missing from baseline", func() *Output {
			d := guardDoc(1, 100, 1000)
			d.Sweeps["shards"] = []report.Point{{Labels: map[string]string{"topology": "shard4"}, Metrics: map[string]float64{"queries_per_sec": 1}}}
			return d
		}(), nil},
		{"host mismatch compares presence only", guardDoc(4, 1e6, 1), nil},
		{"host mismatch still requires presence", guardDoc(4, 100, 0), []string{
			"users{engine=progressive users=8}.queries_per_sec: missing",
			"users{engine=progressive users=8}.speedup_vs_sequential: missing",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log bytes.Buffer
			got := compareGuard(base, tc.fresh, 0.25, &log)
			if len(got) != len(tc.want) {
				t.Fatalf("failures %q, want %d\n%s", got, len(tc.want), log.String())
			}
			for i, w := range tc.want {
				if !strings.HasPrefix(got[i], w) {
					t.Errorf("failure %q, want prefix %q", got[i], w)
				}
			}
		})
	}
}

// TestOutputRoundTrip writes a schema-2 artifact with a NaN metric (a
// staleness percentile over no samples) and reads it back unchanged.
func TestOutputRoundTrip(t *testing.T) {
	in := &Output{Schema: 2, GOOS: "linux", NumCPU: 2,
		Benchmarks: []Result{{Name: "BenchmarkX", Package: "./p", Iterations: 100, NsPerOp: 12.5}},
		Speedups:   map[string]float64{"BenchmarkX/a_vs_b": 2},
		Sweeps: map[string][]report.Point{"ingest": {{
			Labels:  map[string]string{"engine": "progressive", "users": "1"},
			Metrics: map[string]float64{"fresh_pct": math.NaN(), "queries": 40, "quiesce_bitwise": 1},
			Gates:   map[string]bool{"quiesce_bitwise": true},
		}}},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := readOutput(path)
	if err != nil {
		t.Fatal(err)
	}
	m := out.Sweeps["ingest"][0].Metrics
	if !math.IsNaN(m["fresh_pct"]) {
		t.Fatalf("NaN metric read back as %v", m["fresh_pct"])
	}
	m["fresh_pct"] = 0
	in.Sweeps["ingest"][0].Metrics["fresh_pct"] = 0
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the document:\n in %+v\nout %+v", in, out)
	}
}

func TestParseBench(t *testing.T) {
	const output = `goos: linux
goarch: amd64
pkg: idebench/internal/engine
cpu: Intel(R) Xeon(R) Processor
BenchmarkScanCountByNominal/scalar-2         	       2	   7874266 ns/op	  33.29 MB/s	    2160 B/op	      54 allocs/op
BenchmarkScanCountByNominal/vec_dense-2      	       2	    668971 ns/op	 391.86 MB/s	   35048 B/op	      57 allocs/op
BenchmarkProgressiveConcurrent8/shared       	     100	 181000000 ns/op
BenchmarkProgressiveConcurrent8/independent_gather-16 	 100	 7.8e+08 ns/op
PASS
ok  	idebench/internal/engine	0.115s
`
	got := parseBench("./internal/engine", output)
	want := []Result{
		{"BenchmarkScanCountByNominal/scalar", "./internal/engine", 2, 7874266, map[string]float64{"MB/s": 33.29, "B/op": 2160, "allocs/op": 54}},
		{"BenchmarkScanCountByNominal/vec_dense", "./internal/engine", 2, 668971, map[string]float64{"MB/s": 391.86, "B/op": 35048, "allocs/op": 57}},
		{"BenchmarkProgressiveConcurrent8/shared", "./internal/engine", 100, 181000000, nil},
		{"BenchmarkProgressiveConcurrent8/independent_gather", "./internal/engine", 100, 7.8e8, nil},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseBench:\n got %+v\nwant %+v", got, want)
	}
	if m := parseMetrics("  12.5 Mrows/s junk x 3 B/op"); !reflect.DeepEqual(m, map[string]float64{"Mrows/s": 12.5, "B/op": 3}) {
		t.Errorf("parseMetrics skipped or kept the wrong pairs: %v", m)
	}
	if m := parseMetrics(" junk"); m != nil {
		t.Errorf("parseMetrics of no pairs = %v, want nil", m)
	}
	speedups := deriveSpeedups(got)
	wantSpeedups := map[string]float64{
		"BenchmarkScanCountByNominal/vec_dense_vs_scalar":              7874266.0 / 668971,
		"BenchmarkProgressiveConcurrent8/shared_vs_independent_gather": 7.8e8 / 181000000,
	}
	if !reflect.DeepEqual(speedups, wantSpeedups) {
		t.Errorf("deriveSpeedups = %v, want %v", speedups, wantSpeedups)
	}
	if s := deriveSpeedups(got[:1]); s != nil {
		t.Errorf("speedups without a baseline pair = %v, want nil", s)
	}
}

// TestMissingOutWritesNothing: a bare benchrun must not overwrite a
// committed artifact; it exits with usage and writes no file.
func TestMissingOutWritesNothing(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-out is required") || !strings.Contains(stderr.String(), "Usage") {
		t.Errorf("stderr lacks the reason and usage:\n%s", stderr.String())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("benchrun wrote %v without -out", entries)
	}
}

// TestSweepGateFailsRun runs a stub sweep through benchrun: a passing
// point records the artifact and exits 0, a failed gate still records it
// but exits 1 naming the sweep, the point and the gate.
func TestSweepGateFailsRun(t *testing.T) {
	pass := true
	experiments.Sweeps["stub"] = experiments.Sweep{Title: "stub", Labels: []string{"k"},
		Run: func(experiments.Config) ([]report.Point, error) {
			return []report.Point{{Labels: map[string]string{"k": "v"}, Metrics: map[string]float64{"m": 1}, Gates: map[string]bool{"g": pass}}}, nil
		}}
	defer delete(experiments.Sweeps, "stub")
	out := filepath.Join(t.TempDir(), "bench.json")
	args := []string{"-out", out, "-pkgs", "", "-sweeps", "stub"}
	for _, pass = range []bool{true, false} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if want := map[bool]int{true: 0, false: 1}[pass]; code != want {
			t.Fatalf("pass=%v: exit %d, want %d\n%s", pass, code, want, stderr.String())
		}
		if !pass && !strings.Contains(stderr.String(), "sweep stub point k=v: failed gate g") {
			t.Errorf("stderr does not name the failed gate:\n%s", stderr.String())
		}
		doc, err := readOutput(out)
		if err != nil {
			t.Fatal(err)
		}
		if pts := doc.Sweeps["stub"]; doc.Schema != 2 || len(pts) != 1 || pts[0].Metrics["m"] != 1 || pts[0].Gates["g"] != pass {
			t.Fatalf("pass=%v: artifact %+v", pass, doc)
		}
	}
	var stderr bytes.Buffer
	if code := run([]string{"-out", out, "-sweeps", "bogus"}, &bytes.Buffer{}, &stderr); code != 2 {
		t.Fatalf("unknown sweep: exit %d, want 2", code)
	}
}
