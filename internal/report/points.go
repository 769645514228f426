package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Point is one measured point of a benchmark sweep: the labels that place
// it on the sweep's axes, its metrics keyed by their BENCH JSON names, and
// the named pass/fail gates it was checked against.
type Point struct {
	Labels  map[string]string
	Metrics map[string]float64
	Gates   map[string]bool
}

// pointJSON is Point's wire form. JSON has no NaN, so a NaN metric (a
// percentile over no samples) travels as null.
type pointJSON struct {
	Labels  map[string]string   `json:"labels"`
	Metrics map[string]*float64 `json:"metrics"`
	Gates   map[string]bool     `json:"gates,omitempty"`
}

// MarshalJSON writes NaN metrics as null.
func (p Point) MarshalJSON() ([]byte, error) {
	w := pointJSON{Labels: p.Labels, Metrics: make(map[string]*float64, len(p.Metrics)), Gates: p.Gates}
	for k, v := range p.Metrics {
		w.Metrics[k] = nil
		if !math.IsNaN(v) {
			w.Metrics[k] = &v
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON reads null metrics back as NaN.
func (p *Point) UnmarshalJSON(data []byte) error {
	var w pointJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	p.Labels, p.Gates = w.Labels, w.Gates
	p.Metrics = make(map[string]float64, len(w.Metrics))
	for k, v := range w.Metrics {
		p.Metrics[k] = math.NaN()
		if v != nil {
			p.Metrics[k] = *v
		}
	}
	return nil
}

// Failed returns the names of the point's failed gates, sorted.
func (p Point) Failed() []string {
	var failed []string
	for name, ok := range p.Gates {
		if !ok {
			failed = append(failed, name)
		}
	}
	sort.Strings(failed)
	return failed
}

// LabelString renders labels as "k=v" pairs sorted by key.
func LabelString(labels map[string]string) string {
	pairs := make([]string, 0, len(labels))
	for _, k := range sortedKeys(labels) {
		pairs = append(pairs, k+"="+labels[k])
	}
	return strings.Join(pairs, " ")
}

// BoolMetric records a boolean outcome as a 1/0 metric.
func BoolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// RenderPoints writes one table row per point: the label columns, then the
// metric columns, each sorted by key. A metric a point lacks, or a NaN one,
// prints as "-".
func RenderPoints(w io.Writer, pts []Point) error {
	labelSet, metricSet := map[string]bool{}, map[string]bool{}
	for _, p := range pts {
		for k := range p.Labels {
			labelSet[k] = true
		}
		for k := range p.Metrics {
			metricSet[k] = true
		}
	}
	labels, metrics := sortedKeys(labelSet), sortedKeys(metricSet)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(append(labels, metrics...), "\t"))
	for _, p := range pts {
		row := make([]string, 0, len(labels)+len(metrics))
		for _, k := range labels {
			row = append(row, orDash(p.Labels[k]))
		}
		for _, k := range metrics {
			v, ok := p.Metrics[k]
			if !ok {
				v = math.NaN()
			}
			row = append(row, fmtMetric(v))
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	return tw.Flush()
}

// fmtMetric prints whole numbers (counts, flags) without decimals and
// everything else to two.
func fmtMetric(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatFloat(v, 'f', 0, 64)
	default:
		return strconv.FormatFloat(v, 'f', 2, 64)
	}
}

// FindKnee returns the index of the first overload-sweep point where the
// server's overload valves visibly engaged (explicit rejections or deadline
// shedding), or -1 when the whole sweep stayed under capacity. Points are
// assumed ordered by increasing offered rate.
func FindKnee(pts []Point) int {
	for i, p := range pts {
		if p.Metrics["rejected"] > 0 || p.Metrics["shed"] > 0 {
			return i
		}
	}
	return -1
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
