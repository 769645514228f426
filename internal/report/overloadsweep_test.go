package report

import (
	"bytes"
	"strings"
	"testing"
)

func overloadPoint(rate string, rejected, shed float64) Point {
	return Point{Labels: map[string]string{"rate": rate}, Metrics: map[string]float64{"rejected": rejected, "shed": shed}}
}

func TestFindKnee(t *testing.T) {
	pts := []Point{
		overloadPoint("100", 0, 0),
		overloadPoint("200", 0, 3),
		overloadPoint("400", 50, 10),
	}
	if got := FindKnee(pts); got != 1 {
		t.Fatalf("knee at %d, want 1 (first point with shedding)", got)
	}
	if got := FindKnee(pts[:1]); got != -1 {
		t.Fatalf("under-capacity sweep knee = %d, want -1", got)
	}
	if got := FindKnee(nil); got != -1 {
		t.Fatalf("empty sweep knee = %d, want -1", got)
	}
}

// TestRenderOverloadSweep checks the table prints a metric a point lacks
// as "-" and fractional metrics to two decimals.
func TestRenderOverloadSweep(t *testing.T) {
	pts := []Point{overloadPoint("100", 0, 0), overloadPoint("800", 650, 40)}
	pts[1].Metrics["done_p99_ms"] = 24.5
	var buf bytes.Buffer
	if err := RenderPoints(&buf, pts); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		rows = append(rows, strings.Join(strings.Fields(line), " "))
	}
	want := []string{"rate done_p99_ms rejected shed", "100 - 0 0", "800 24.50 650 40"}
	if strings.Join(rows, "|") != strings.Join(want, "|") {
		t.Fatalf("table rows %q, want %q", rows, want)
	}
}
