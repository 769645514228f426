package experiments

import (
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"idebench/internal/core"
	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/loadgen"
	"idebench/internal/report"
	"idebench/internal/server"
)

// OverloadDeadline is the per-query interactivity deadline of the overload
// sweep — queries with no snapshot inside it count as violated, and the
// server sheds admitted queries still running past its late budget.
const OverloadDeadline = 12 * time.Millisecond

// defaultOverloadRates is the offered-load ladder (arrivals/second). The
// upper rungs are far past what the tightened admission caps below admit, so
// the sweep always walks through the knee.
var defaultOverloadRates = []float64{100, 250, 500, 1000, 2000, 4000}

// maxDoneP99PastKnee is the ceiling on admitted-query time-to-final p99 at
// and past the shedding knee, milliseconds. Deadline shedding cancels
// admitted queries a couple of deadlines after admission, so even at 30x
// the capacity rate the tail must stay far under the load generator's 2s
// hard timeout.
const maxDoneP99PastKnee = 1500.0

// overloadSweep measures open-loop overload survival. It serves a
// progressive engine on a real loopback listener with deliberately tight
// admission caps (the knee must appear inside the ladder, not at
// data-center scale), then offers each rate for window with a Poisson
// open-loop generator. At every rate it records the admitted-query latency
// tails (p50/p99/p99.9 of TTFS and time-to-final), the explicit-rejection
// and shedding counts, and the post-drain shared-scan consumer count.
// Overload may cost rejections, never leaks or unbounded tails: every point
// is gated on zero leaked consumers, zero hard errors (overload must reject
// explicitly, not error) and, at and past the knee, done-p99 within
// maxDoneP99PastKnee; the top rung is gated on the knee lying inside the
// ladder.
func overloadSweep(cfg Config, rates []float64, window time.Duration) ([]report.Point, error) {
	cfg = cfg.withDefaults()
	if len(rates) == 0 {
		return nil, fmt.Errorf("experiments: empty overload rate ladder")
	}

	db, err := core.BuildData(cfg.Rows, false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := core.DefaultSettings()
	s.DataSize = cfg.Rows
	s.Seed = cfg.Seed
	p, err := core.Prepare("progressive", db, s)
	if err != nil {
		return nil, err
	}
	caps := engine.CapabilitiesOf(p.Engine)
	scanObs := caps.ScanObserver

	// Tight caps force the knee inside the ladder: a shallow admission queue
	// and a short late budget mean the upper rungs must be survived by
	// rejecting and shedding, not by buffering.
	opts := server.Options{
		Rows:               int64(db.Fact.NumRows()),
		Seed:               cfg.Seed,
		MaxConns:           64,
		MaxInflight:        16,
		MaxInflightPerConn: 8,
		PollInterval:       time.Millisecond,
	}
	if app := caps.Appender; app != nil {
		opts.Apply = ingest.NewApplier(db, app).Apply
	}
	srv := server.New(p.Engine, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hsrv := &http.Server{Handler: srv}
	serveDone := make(chan struct{})
	go func() { hsrv.Serve(l); close(serveDone) }()
	defer func() { hsrv.Close(); <-serveDone }()
	addr := l.Addr().String()

	var pts []report.Point
	for i, rate := range rates {
		// Fresh client per point: session state, handle maps, and frame
		// stats start clean at every rung.
		rem, err := server.NewRemote(addr)
		if err != nil {
			return nil, fmt.Errorf("experiments: overload dial at %.0f/s: %w", rate, err)
		}
		wl, err := loadgen.New("uniform", db, cfg.Seed+int64(i))
		if err != nil {
			rem.Close()
			return nil, err
		}
		st, err := loadgen.Run(rem, wl, loadgen.Poisson{Rate: rate}, loadgen.Config{
			Sessions: 8,
			Duration: window,
			Deadline: OverloadDeadline,
			Seed:     cfg.Seed + int64(100+i),
		})
		rem.Close()
		if err != nil {
			return nil, fmt.Errorf("experiments: overload at %.0f/s: %w", rate, err)
		}

		// The leak gate: after the point's clients are gone, the shared scan
		// must drain to zero consumers before the next rung starts.
		leaked := 0
		if scanObs != nil {
			deadline := time.Now().Add(10 * time.Second)
			for scanObs.ActiveScanConsumers() > 0 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			leaked = scanObs.ActiveScanConsumers()
		}

		pts = append(pts, report.Point{
			Labels: map[string]string{"rate": strconv.FormatFloat(rate, 'f', -1, 64)},
			Metrics: map[string]float64{
				"offered_rate":     st.OfferedRate,
				"offered":          float64(st.Offered),
				"started":          float64(st.Started),
				"completed":        float64(st.Completed),
				"rejected":         float64(st.Rejected),
				"dropped":          float64(st.Dropped),
				"errors":           float64(st.Errors),
				"shed":             float64(st.Shed),
				"violations":       float64(st.Violations),
				"rejected_pct":     st.RejectedPct(),
				"violation_pct":    st.ViolationPct(),
				"ttfs_p50_ms":      st.TTFS.P50,
				"ttfs_p99_ms":      st.TTFS.P99,
				"ttfs_p999_ms":     st.TTFS.P999,
				"done_p50_ms":      st.Done.P50,
				"done_p99_ms":      st.Done.P99,
				"done_p999_ms":     st.Done.P999,
				"leaked_consumers": float64(leaked),
			},
		})
	}

	knee := report.FindKnee(pts)
	for i := range pts {
		m := pts[i].Metrics
		pts[i].Gates = map[string]bool{
			"zero_leaked_consumers": m["leaked_consumers"] == 0,
			"zero_hard_errors":      m["errors"] == 0,
			"done_p99_bounded":      knee < 0 || i < knee || !(m["completed"] > 0 && m["done_p99_ms"] > maxDoneP99PastKnee),
		}
	}
	pts[len(pts)-1].Gates["knee_inside_ladder"] = knee >= 0
	if knee < 0 {
		fmt.Fprintln(cfg.Out, "no knee: the sweep never pushed the server into shedding")
	} else {
		fmt.Fprintf(cfg.Out, "knee at %.0f arrivals/s: admission control and shedding engaged; past it the server answers what it admits and rejects the rest explicitly\n", rates[knee])
	}
	return pts, nil
}
